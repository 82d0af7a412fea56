// Command benchgate is the benchmark-regression gate of the CI pipeline:
// it runs the repository's key hot-path benchmarks (kernel, host, core,
// simulator), records the measured ns/op and allocs/op under
// BENCH_<sha>.json, and fails when any gated benchmark regresses more than
// -tolerance against the committed baseline (ci/bench_baseline.json) — or,
// for the deterministic core-engine benchmarks, when allocs/op exceeds the
// baseline at all (the zero-allocation steady state of the scratch-arena
// engine is a hard property, not a tolerance band), or when a ratio of two
// benchmarks measured in the same run exceeds its bound (ratios). A
// baseline benchmark that produces no measurement also fails: deleting a
// benchmark must not silently delete its gate.
//
// Usage:
//
//	benchgate [-baseline ci/bench_baseline.json] [-tolerance 0.20]
//	          [-count 3] [-benchtime 1s] [-out FILE] [-update]
//	          [-allocs-only]
//
// The benchmark set runs -count rounds, each benchmark once per round;
// the fastest ns/op and smallest allocs/op over the rounds are compared,
// which filters scheduler noise and sync.Pool warm-up. Rounds interleave
// the benchmarks, so the two sides of a ratio are measured seconds apart in
// every round and a slow spell of the box reaches both sides alike. -update rewrites the baseline from the current measurements
// (run it on the reference machine after intentional performance changes).
// -allocs-only runs just the alloc-gated benchmarks and checks only the
// allocation columns — a cheap CI step that needs no timing stability.
// The result records which narrow engine ran (core.NarrowEngine); the
// baseline's timings are the AVX2 routine's, so a timing run on a machine
// that runs the portable engine fails before it measures anything.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pimnw/internal/core"
)

// gated lists the benchmarks the gate watches: the kernel/host hot paths
// whose regressions matter most to the simulated pipeline (the full suite
// still smoke-runs in ci.sh). Names may be sub-benchmarks ("parent/sub").
var gated = []string{
	"AdaptiveBandScore10k",
	"AdaptiveBandScoreNarrow10k",
	"AdaptiveBandScoreWide10k",
	"AdaptiveBandAlign10k",
	"AdaptiveBandAlignWide10k",
	"AdaptiveBandAlign1k",
	"AdaptiveBandScore/w64",
	"AdaptiveBandScore/w256",
	"AdaptiveBandAlign/w128",
	"StaticBandScore10k",
	"DPUKernelBatch",
	"HostAlignPairs",
	"HostEscalation",
	"LPT",
	"Placement",
	"FluidSimulator",
	"FluidSimulatorServing",
	"CacheHit10k",
	"WALAppend",
	"SessionOpenClose",
}

// allocGated is the subset whose allocs/op must never exceed the baseline:
// the deterministic single-goroutine benchmarks — the core engines, one
// kernel launch, the fluid simulator on the serving shape, and an empty
// session's open+close (no goroutine, so its count is exact). The host
// batch benchmarks are excluded: goroutine scheduling and GC timing make
// their counts noisy by a few objects either way.
var allocGated = []string{
	"AdaptiveBandScore10k",
	"AdaptiveBandScoreNarrow10k",
	"AdaptiveBandScoreWide10k",
	"AdaptiveBandAlign10k",
	"AdaptiveBandAlignWide10k",
	"AdaptiveBandAlign1k",
	"AdaptiveBandScore/w64",
	"AdaptiveBandScore/w256",
	"AdaptiveBandAlign/w128",
	"StaticBandScore10k",
	"CacheHit10k",
	"Placement",
	"DPUKernelBatch",
	"FluidSimulatorServing",
	"SessionOpenClose",
}

// ratios are the gates that survive a change of box: each bounds the
// min-of-count ns/op of one benchmark by that of another measured in the
// same interleaved rounds. The narrow traceback engine must stay far ahead of the wide one
// it falls back to, cost little more than its score-only twin, and spend
// per cell on the serving pair (1 kb) at most 1.32× what it spends on the
// 10 kb pair (the cell ratio of the two is 0.0945).
var ratios = []struct {
	num, den string
	max      float64
}{
	{"AdaptiveBandAlign10k", "AdaptiveBandAlignWide10k", 0.3},
	{"AdaptiveBandAlign10k", "AdaptiveBandScoreNarrow10k", 1.5},
	{"AdaptiveBandAlign1k", "AdaptiveBandAlign10k", 0.125},
}

// baselineFile is the committed reference measurement set.
type baselineFile struct {
	SHA        string             `json:"sha"`
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Benchmarks map[string]float64 `json:"benchmarks"` // name -> ns/op (best of -count)
	// AllocsPerOp records allocs/op (smallest of -count) for every
	// measured benchmark; the allocGated subset is gated on it.
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
	// NarrowEngine is the narrow engine the core rows ran on: "avx2" or
	// "portable".
	NarrowEngine string `json:"narrow_engine,omitempty"`
}

func main() {
	var (
		baseline   = flag.String("baseline", "ci/bench_baseline.json", "committed baseline to gate against")
		tolerance  = flag.Float64("tolerance", 0.20, "allowed fractional slowdown before failing (0.20 = +20%)")
		count      = flag.Int("count", 3, "rounds over the benchmark set; each benchmark's fastest is kept")
		benchtime  = flag.String("benchtime", "1s", "go test -benchtime per run")
		out        = flag.String("out", "", "result file (default BENCH_<sha>.json)")
		update     = flag.Bool("update", false, "rewrite the baseline from this run's measurements")
		allocsOnly = flag.Bool("allocs-only", false, "run only the alloc-gated benchmarks and check only allocs/op")
	)
	flag.Parse()
	if err := run(*baseline, *tolerance, *count, *benchtime, *out, *update, *allocsOnly); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

// benchPattern builds the -bench regex for a gated-name list. go test
// treats "/" in the pattern as a sub-benchmark level separator, so the
// pattern is built from the unique first segments; every sub-benchmark of
// a matched parent runs (and is recorded), which is what we want for the
// band sweeps.
func benchPattern(names []string) string {
	seen := map[string]bool{}
	var firsts []string
	for _, g := range names {
		f, _, _ := strings.Cut(g, "/")
		if !seen[f] {
			seen[f] = true
			firsts = append(firsts, f)
		}
	}
	return "^Benchmark(" + strings.Join(firsts, "|") + ")$"
}

func run(baselinePath string, tolerance float64, count int, benchtime, outPath string, update, allocsOnly bool) error {
	engine := core.NarrowEngine()
	if err := checkEngine(engine, allocsOnly); err != nil {
		return err
	}
	sha := headSHA()
	watch := gated
	if allocsOnly {
		watch = allocGated
	}
	args := []string{"test", "-run=^$", "-bench=" + benchPattern(watch), "-benchmem",
		"-benchtime=" + benchtime, "-count=1", "."}
	var raw []byte
	for round := 1; round <= count; round++ {
		fmt.Fprintf(os.Stderr, "benchgate: round %d/%d: go %s\n", round, count, strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("benchmarks failed: %w", err)
		}
		raw = append(raw, out...)
	}
	measured, allocs := parseBench(string(raw))
	for _, name := range watch {
		if _, ok := measured[name]; !ok {
			return fmt.Errorf("gated benchmark %s produced no measurement", name)
		}
	}

	result := baselineFile{
		SHA: sha, GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Benchmarks: measured, AllocsPerOp: allocs, NarrowEngine: engine,
	}
	if outPath == "" {
		outPath = "BENCH_" + sha + ".json"
	}
	if err := writeJSON(outPath, result); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchgate: results written to %s\n", outPath)

	if update {
		if allocsOnly {
			return fmt.Errorf("-update needs the full benchmark set; drop -allocs-only")
		}
		if err := writeJSON(baselinePath, result); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "benchgate: baseline %s updated\n", baselinePath)
		return nil
	}

	base, err := readBaseline(baselinePath)
	if err != nil {
		return err
	}
	failed := false
	if !allocsOnly {
		report, nsFailed := compare(base.Benchmarks, measured, tolerance)
		fmt.Print(report)
		ratioReport, ratioFailed := compareRatios(measured)
		fmt.Print(ratioReport)
		failed = nsFailed || ratioFailed
	}
	allocReport, allocFailed := compareAllocs(base.AllocsPerOp, allocs)
	fmt.Print(allocReport)
	if failed || allocFailed {
		return fmt.Errorf("benchmark regression (baseline %s@%s; "+
			"if intentional, regenerate with -update on the reference machine)",
			base.SHA, base.GOARCH)
	}
	return nil
}

// checkEngine refuses a timing run on the portable narrow engine: the
// baseline's core timings were measured on the AVX2 routine, several
// times faster, so gating against them would only report the engine.
// Allocation counts do not depend on the engine.
func checkEngine(engine string, allocsOnly bool) error {
	if allocsOnly || engine == "avx2" {
		return nil
	}
	return fmt.Errorf("this machine runs the %s narrow engine, not the AVX2 routine the baseline's timings "+
		"were measured on; only -allocs-only can run here", engine)
}

// benchLine matches one `go test -bench -benchmem` result line, e.g.
// "BenchmarkHostAlignPairs-8  12  98765432 ns/op  1.2 MB/s  80 B/op  2 allocs/op".
// The MB/s and memory columns are optional.
var benchLine = regexp.MustCompile(`(?m)^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ MB/s)?(?:\s+[0-9]+ B/op\s+([0-9]+) allocs/op)?`)

// parseBench extracts the fastest ns/op and the smallest allocs/op per
// benchmark name from go test -bench output (repeated -count runs collapse
// to their minimum; the allocs minimum discards sync.Pool warm-up misses).
func parseBench(out string) (best, allocs map[string]float64) {
	best = map[string]float64{}
	allocs = map[string]float64{}
	for _, m := range benchLine.FindAllStringSubmatch(out, -1) {
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if prev, ok := best[name]; !ok || ns < prev {
			best[name] = ns
		}
		if m[3] != "" {
			a, err := strconv.ParseFloat(m[3], 64)
			if err == nil {
				if prev, ok := allocs[name]; !ok || a < prev {
					allocs[name] = a
				}
			}
		}
	}
	return best, allocs
}

// compare renders the per-benchmark old/new/Δ% gate table and reports
// whether any gated benchmark regressed beyond the tolerance. Benchmarks
// missing from the baseline are reported but never fail the gate (they
// gate once committed); a baseline benchmark that produced no measurement
// FAILS the gate — a deleted or renamed benchmark silently un-gating
// itself is exactly the regression hole this gate exists to close.
func compare(base, measured map[string]float64, tolerance float64) (string, bool) {
	var sb strings.Builder
	failed := false
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ns := measured[name]
		ref, ok := base[name]
		if !ok || ref <= 0 {
			fmt.Fprintf(&sb, "NEW   %-26s %14.0f ns/op (no baseline)\n", name, ns)
			continue
		}
		delta := ns/ref - 1
		verdict := "OK   "
		if delta > tolerance {
			verdict = "FAIL "
			failed = true
		}
		fmt.Fprintf(&sb, "%s %-26s %14.0f ns/op  baseline %14.0f  (%+.1f%%)\n",
			verdict, name, ns, ref, 100*delta)
	}
	missing := make([]string, 0)
	for name := range base {
		if _, ok := measured[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(&sb, "MISS  %-26s baseline %14.0f ns/op, no measurement (benchmark deleted or renamed?)\n",
			name, base[name])
		failed = true
	}
	return sb.String(), failed
}

// compareRatios renders the ratio gates and reports whether any failed: a
// ratio above its bound FAILs, and so does a ratio with a side that
// produced no measurement (MISS).
func compareRatios(measured map[string]float64) (string, bool) {
	var sb strings.Builder
	failed := false
	for _, r := range ratios {
		name := r.num + " / " + r.den
		num, okN := measured[r.num]
		den, okD := measured[r.den]
		if !okN || !okD || den <= 0 {
			fmt.Fprintf(&sb, "MISS  %-50s no measurement for one side\n", name)
			failed = true
			continue
		}
		verdict := "OK   "
		if num/den > r.max {
			verdict = "FAIL "
			failed = true
		}
		fmt.Fprintf(&sb, "%s %-50s %8.3f (bound %.3f)\n", verdict, name, num/den, r.max)
	}
	return sb.String(), failed
}

// compareAllocs gates the allocGated benchmarks on allocs/op: any count
// above the committed baseline fails (no tolerance — the engine's
// steady-state allocation profile is deterministic). Benchmarks absent
// from either side are skipped; they gate once the baseline records them.
func compareAllocs(base, measured map[string]float64) (string, bool) {
	var sb strings.Builder
	failed := false
	for _, name := range allocGated {
		a, ok := measured[name]
		if !ok {
			continue
		}
		ref, ok := base[name]
		if !ok {
			fmt.Fprintf(&sb, "NEW   %-24s %14.0f allocs/op (no baseline)\n", name, a)
			continue
		}
		verdict := "OK   "
		if a > ref {
			verdict = "FAIL "
			failed = true
		}
		fmt.Fprintf(&sb, "%s %-24s %14.0f allocs/op  baseline %14.0f\n", verdict, name, a, ref)
	}
	return sb.String(), failed
}

func readBaseline(path string) (baselineFile, error) {
	var b baselineFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, fmt.Errorf("reading baseline (generate with -update): %w", err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return b, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// headSHA resolves the commit being measured: GITHUB_SHA in CI, git
// locally, "unknown" as the last resort.
func headSHA() string {
	if sha := os.Getenv("GITHUB_SHA"); sha != "" {
		return sha
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
