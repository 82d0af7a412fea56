// Command experiments regenerates the paper's evaluation tables
// side-by-side with the reproduction's numbers.
//
// Usage:
//
//	experiments [-table 1|2|...|8|utilization|ablation|all] [-quick]
//	            [-samples N] [-seed S] [-format text|markdown] [-v]
//	            [-metrics FILE] [-trace-out FILE] [-report-json FILE]
//	            [-fault-rate P] [-fault-seed N] [-max-retries N]
//	            [-batch-deadline SEC] [-escalation] [-max-band W] [-verify]
//	            [-cache-dir DIR] [-fleet SPEC]
//	            [-cpuprofile FILE] [-memprofile FILE]
//
// Accuracy numbers come from running the real aligners on sampled pairs;
// runtime numbers come from scaled simulated runs calibrated and projected
// to the paper's dataset sizes (see EXPERIMENTS.md for the methodology).
//
// Observability: -metrics snapshots the run's metric registry (kernel
// cells, simulator cycle breakdowns, utilization histograms) as Prometheus
// text, -trace-out writes the harness's wall-clock spans (per table, per
// calibration, per batch) as Chrome trace-event JSON for Perfetto, and
// -report-json writes every generated table as a JSON array. "-" writes
// to stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pimnw/internal/host"
	"pimnw/internal/obs"
	"pimnw/internal/xp"
)

func main() {
	obs.SetLogPrefix("experiments")
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	table := flag.String("table", "all", "table to regenerate (1-8, utilization, ablation, hybrid, wfa, all)")
	quick := flag.Bool("quick", false, "shrink samples and read lengths for a fast smoke run")
	samples := flag.Int("samples", 0, "override the per-dataset accuracy sample count")
	seed := flag.Int64("seed", 0, "offset every generator seed")
	format := flag.String("format", "text", "output format: text or markdown")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent result cache used by the batch experiments (empty = caching disabled)")
	var cli obs.CLI
	cli.Bind(flag.CommandLine) // -v -log-json -metrics -trace-out -report-json -cpuprofile -memprofile
	// Fault injection, the integrity ladder, lane width and fleet apply to
	// the simulated batch runs and calibrations.
	var hostOpts host.Options
	hostOpts.Bind(flag.CommandLine)
	flag.Parse()
	if err := cli.Start(); err != nil {
		return err
	}
	defer cli.Stop()

	// Reject a bad -lanes or -fleet before any table runs.
	if _, err := hostOpts.Config(); err != nil {
		return err
	}
	runner := xp.NewRunner(xp.Options{
		Quick: *quick, Samples: *samples, Seed: *seed,
		Host: hostOpts, CacheDir: *cacheDir,
	})
	defer runner.Close()
	ids := []string{*table}
	if *table == "all" {
		ids = xp.TableIDs()
	}
	var tables []xp.Table
	for _, id := range ids {
		start := time.Now()
		t, err := runner.Table(id)
		if err != nil {
			return fmt.Errorf("table %s: %w", id, err)
		}
		tables = append(tables, t)
		if *format == "markdown" {
			fmt.Println(t.RenderMarkdown())
		} else {
			fmt.Println(t.Render())
		}
		obs.Logf("table %s generated in %.1fs", id, time.Since(start).Seconds())
	}
	return cli.WriteArtifacts("experiments (wall clock)", nil, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tables)
	})
}
