package main

import (
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: pimnw
BenchmarkHostAlignPairs-8   	      12	  98765432 ns/op	 1234 B/op	      21 allocs/op
BenchmarkHostAlignPairs-8   	      14	  87654321 ns/op	 1200 B/op	      18 allocs/op
BenchmarkFluidSimulator-8   	    1000	      1234.5 ns/op
BenchmarkDPUKernelBatch     	       5	 200000000 ns/op
BenchmarkAdaptiveBandScore/w64-8 	     100	   1000000 ns/op	   8.00 MB/s	       0 B/op	       0 allocs/op
PASS
ok  	pimnw	12.3s
`
	got, allocs := parseBench(out)
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks: %v", len(got), got)
	}
	// Repeated runs collapse to the fastest ns/op and smallest allocs/op.
	if got["HostAlignPairs"] != 87654321 {
		t.Errorf("HostAlignPairs = %v, want fastest run 87654321", got["HostAlignPairs"])
	}
	if allocs["HostAlignPairs"] != 18 {
		t.Errorf("HostAlignPairs allocs = %v, want smallest run 18", allocs["HostAlignPairs"])
	}
	// Fractional ns/op and missing -N suffix both parse.
	if got["FluidSimulator"] != 1234.5 {
		t.Errorf("FluidSimulator = %v", got["FluidSimulator"])
	}
	if got["DPUKernelBatch"] != 200000000 {
		t.Errorf("DPUKernelBatch = %v", got["DPUKernelBatch"])
	}
	// Lines without memory columns record no allocs entry.
	if _, ok := allocs["FluidSimulator"]; ok {
		t.Error("FluidSimulator has an allocs entry despite no -benchmem columns")
	}
	// Sub-benchmark names keep their slash, and the MB/s column is skipped.
	if got["AdaptiveBandScore/w64"] != 1000000 {
		t.Errorf("AdaptiveBandScore/w64 = %v", got["AdaptiveBandScore/w64"])
	}
	if a, ok := allocs["AdaptiveBandScore/w64"]; !ok || a != 0 {
		t.Errorf("AdaptiveBandScore/w64 allocs = %v (present=%v), want 0", a, ok)
	}
}

func TestBenchPattern(t *testing.T) {
	// Sub-benchmark names collapse to their unique first segments: "/" is a
	// level separator in -bench patterns, so the full name must not appear.
	got := benchPattern([]string{"A10k", "A/w64", "A/w256", "B"})
	want := "^Benchmark(A10k|A|B)$"
	if got != want {
		t.Errorf("benchPattern = %q, want %q", got, want)
	}
}

func TestCompare(t *testing.T) {
	base := map[string]float64{"a": 100, "b": 100, "c": 100}
	measured := map[string]float64{
		"a": 110, // +10%: within tolerance
		"b": 130, // +30%: regression
		"d": 50,  // not in baseline: reported, never fails
	}
	report, failed := compare(base, measured, 0.20)
	if !failed {
		t.Error("30% regression passed the gate")
	}
	for _, want := range []string{"OK    a", "FAIL  b", "NEW   d"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}

	// "c" produced no measurement: a deleted or renamed benchmark must fail
	// the gate, not silently un-gate itself.
	if !strings.Contains(report, "MISS  c") {
		t.Errorf("report missing MISS verdict for c:\n%s", report)
	}

	report, failed = compare(base, map[string]float64{"a": 119, "b": 90, "c": 100}, 0.20)
	if failed {
		t.Errorf("all within tolerance but gate failed:\n%s", report)
	}
	// Improvements show a negative delta.
	if !strings.Contains(report, "-10.0%") {
		t.Errorf("improvement not reported:\n%s", report)
	}

	// A missing benchmark alone fails the gate even with every measured
	// benchmark inside tolerance.
	report, failed = compare(base, map[string]float64{"a": 100, "b": 100}, 0.20)
	if !failed {
		t.Errorf("missing benchmark passed the gate:\n%s", report)
	}
}

func TestCompareAllocs(t *testing.T) {
	name := allocGated[0]
	base := map[string]float64{name: 0}

	// At the baseline: passes.
	report, failed := compareAllocs(base, map[string]float64{name: 0})
	if failed {
		t.Errorf("matching allocs failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "OK") {
		t.Errorf("report missing OK verdict:\n%s", report)
	}

	// One allocation above the baseline: fails — no tolerance band.
	report, failed = compareAllocs(base, map[string]float64{name: 1})
	if !failed {
		t.Errorf("alloc regression passed the gate:\n%s", report)
	}
	if !strings.Contains(report, "FAIL") {
		t.Errorf("report missing FAIL verdict:\n%s", report)
	}

	// Missing from the baseline: reported as NEW, never fails.
	report, failed = compareAllocs(map[string]float64{}, map[string]float64{name: 5})
	if failed {
		t.Errorf("benchmark absent from baseline failed the gate:\n%s", report)
	}
	if !strings.Contains(report, "NEW") {
		t.Errorf("report missing NEW verdict:\n%s", report)
	}
}

func TestCompareRatios(t *testing.T) {
	// Inside every bound: passes, and each ratio is printed.
	measured := map[string]float64{
		"AdaptiveBandAlignWide10k":   26_000_000,
		"AdaptiveBandScoreNarrow10k": 2_300_000,
		"AdaptiveBandAlign10k":       2_600_000, // 0.100 and 1.130
		"AdaptiveBandAlign1k":        280_000,   // 0.108
	}
	report, failed := compareRatios(measured)
	if failed {
		t.Errorf("ratios within bounds failed the gate:\n%s", report)
	}
	for _, r := range ratios {
		if !strings.Contains(report, "OK    "+r.num+" / "+r.den) {
			t.Errorf("report missing OK verdict for %s / %s:\n%s", r.num, r.den, report)
		}
	}
	if !strings.Contains(report, "0.108") {
		t.Errorf("report does not print the measured ratio:\n%s", report)
	}

	// The serving pair above its bound against the 10 kb pair: fails.
	breach := map[string]float64{}
	for k, v := range measured {
		breach[k] = v
	}
	breach["AdaptiveBandAlign1k"] = 360_000 // 0.138
	report, failed = compareRatios(breach)
	if !failed || !strings.Contains(report, "FAIL  AdaptiveBandAlign1k / AdaptiveBandAlign10k") {
		t.Errorf("ratio breach passed the gate:\n%s", report)
	}

	// A missing side fails like a deleted benchmark.
	missing := map[string]float64{}
	for k, v := range measured {
		missing[k] = v
	}
	delete(missing, "AdaptiveBandAlignWide10k")
	report, failed = compareRatios(missing)
	if !failed || !strings.Contains(report, "MISS  AdaptiveBandAlign10k / AdaptiveBandAlignWide10k") {
		t.Errorf("ratio with a missing side passed the gate:\n%s", report)
	}
}

func TestCheckEngine(t *testing.T) {
	if err := checkEngine("avx2", false); err != nil {
		t.Errorf("an AVX2 timing run was refused: %v", err)
	}
	if err := checkEngine("portable", true); err != nil {
		t.Errorf("a portable -allocs-only run was refused: %v", err)
	}
	err := checkEngine("portable", false)
	if err == nil || !strings.Contains(err.Error(), "portable narrow engine") || !strings.Contains(err.Error(), "-allocs-only") {
		t.Errorf("a portable timing run was not refused with a clear message: %v", err)
	}
}
