package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimnw/internal/host"
	"pimnw/internal/seq"
)

// runCaptured runs the CLI body with stdout redirected to a file.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = saved
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

func writeFasta(t *testing.T, name string, recs []seq.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := seq.WriteFASTA(f, recs, 60); err != nil {
		t.Fatal(err)
	}
	return path
}

func sampleRecords(n int) []seq.Record {
	rng := rand.New(rand.NewSource(5))
	root := seq.Random(rng, 200)
	recs := make([]seq.Record, n)
	for i := range recs {
		recs[i] = seq.Record{Name: fmt.Sprintf("s%d", i), Seq: seq.UniformErrors(0.05).Apply(rng, root)}
	}
	return recs
}

// TestUnknownModeRejected: a mistyped -mode used to run pairs mode
// silently; it must fail and name the two valid modes.
func TestUnknownModeRejected(t *testing.T) {
	a := writeFasta(t, "a.fa", sampleRecords(3))
	for _, mode := range []string{"allpair", "ALLPAIRS", ""} {
		out, err := runCaptured(t, "-mode", mode, "-a", a, "-b", a)
		if err == nil || !strings.Contains(err.Error(), "want pairs or allpairs") {
			t.Errorf("-mode %q: err = %v", mode, err)
		}
		if out != "" {
			t.Errorf("-mode %q printed results: %q", mode, out)
		}
	}
}

// TestAllPairsModeIsThePairList: -mode allpairs is pairs mode on the
// expanded comparison list, score-only, in host.AllPairIndices order — on
// either engine and whatever else the run asks of the pipeline.
func TestAllPairsModeIsThePairList(t *testing.T) {
	recs := sampleRecords(6)
	var qs, ts []seq.Record
	for _, pi := range host.AllPairIndices(len(recs)) {
		qs, ts = append(qs, recs[pi.I]), append(ts, recs[pi.J])
	}
	all, a, b := writeFasta(t, "all.fa", recs), writeFasta(t, "a.fa", qs), writeFasta(t, "b.fa", ts)
	for _, extra := range [][]string{
		{"-ranks", "1"},
		{"-ranks", "1", "-escalation", "-fault-rate", "0.05"},
		{"-fleet", "pim:1,cpu:2"},
		{"-engine", "cpu"},
	} {
		got, err := runCaptured(t, append([]string{"-mode", "allpairs", "-a", all}, extra...)...)
		if err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		want, err := runCaptured(t, append([]string{"-score-only", "-a", a, "-b", b}, extra...)...)
		if err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		if got != want {
			t.Errorf("%v: allpairs stdout differs from pairs mode on the expanded list:\n%s\nvs\n%s", extra, got, want)
		}
		if n := strings.Count(got, "\n"); n != len(qs) {
			t.Errorf("%v: %d result lines for %d comparisons", extra, n, len(qs))
		}
		if first := fmt.Sprintf("%s\t%s\t", recs[0].Name, recs[1].Name); !strings.HasPrefix(got, first) {
			t.Errorf("%v: first line %q does not start with %q", extra, strings.SplitN(got, "\n", 2)[0], first)
		}
	}
}
