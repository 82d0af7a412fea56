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
	table := flag.String("table", "all", "table to regenerate (1-8, utilization, ablation, hybrid, wfa, all)")
	quick := flag.Bool("quick", false, "shrink samples and read lengths for a fast smoke run")
	samples := flag.Int("samples", 0, "override the per-dataset accuracy sample count")
	seed := flag.Int64("seed", 0, "offset every generator seed")
	format := flag.String("format", "text", "output format: text or markdown")
	verbose := flag.Bool("v", false, "verbose (debug) logging")
	logJSON := flag.Bool("log-json", false, "structured JSON log lines instead of text")
	metrics := flag.String("metrics", "", "write a Prometheus-text metrics snapshot to FILE (\"-\" = stdout)")
	traceOut := flag.String("trace-out", "", "write the harness spans as Chrome trace-event JSON to FILE")
	reportJSON := flag.String("report-json", "", "write the generated tables as JSON to FILE")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent result cache used by the batch experiments (empty = caching disabled)")
	// Fault injection, the integrity ladder, lane width and fleet apply to
	// the simulated batch runs and calibrations.
	var hostOpts host.Options
	hostOpts.Bind(flag.CommandLine)
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to FILE")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-GC snapshot at exit) to FILE")
	flag.Parse()
	if *verbose {
		obs.SetVerbosity(1)
	}
	obs.SetLogJSON(*logJSON)
	stopProfiles, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	defer stopProfiles()
	if *metrics != "" {
		obs.SetDefault(obs.NewRegistry())
	}
	if *traceOut != "" {
		obs.SetDefaultTracer(obs.NewTracer())
	}

	// Reject a bad -lanes or -fleet before any table runs.
	if _, err := hostOpts.Config(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
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
			fmt.Fprintf(os.Stderr, "experiments: table %s: %v\n", id, err)
			runner.Close() // deferred calls do not survive os.Exit
			stopProfiles()
			os.Exit(1)
		}
		tables = append(tables, t)
		if *format == "markdown" {
			fmt.Println(t.RenderMarkdown())
		} else {
			fmt.Println(t.Render())
		}
		obs.Logf("table %s generated in %.1fs", id, time.Since(start).Seconds())
	}
	if err := writeArtifacts(tables, *metrics, *traceOut, *reportJSON); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		runner.Close()
		stopProfiles()
		os.Exit(1)
	}
}

// writeArtifacts dumps the enabled observability outputs after the run.
func writeArtifacts(tables []xp.Table, metrics, traceOut, reportJSON string) error {
	if metrics != "" {
		if err := toFile(metrics, func(w io.Writer) error {
			return obs.Default().WritePrometheus(w)
		}); err != nil {
			return fmt.Errorf("writing -metrics: %w", err)
		}
	}
	if traceOut != "" {
		if err := toFile(traceOut, func(w io.Writer) error {
			tr := obs.DefaultTracer()
			events := append([]obs.TraceEvent{obs.ProcessName(0, "experiments (wall clock)")}, tr.Events(0)...)
			return obs.WriteTraceEvents(w, events)
		}); err != nil {
			return fmt.Errorf("writing -trace-out: %w", err)
		}
		obs.Logf("trace written to %s (open in Perfetto or chrome://tracing)", traceOut)
	}
	if reportJSON != "" {
		if err := toFile(reportJSON, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(tables)
		}); err != nil {
			return fmt.Errorf("writing -report-json: %w", err)
		}
	}
	return nil
}

// toFile runs write against the named file, or stdout for "-".
func toFile(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
