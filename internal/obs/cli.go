package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// CLI is the observability front end of the batch commands (pimalign,
// experiments): Bind declares their -v, -log-json, -metrics, -trace-out,
// -report-json, -cpuprofile and -memprofile flags, Start applies them
// once the flags are parsed, and WriteArtifacts writes the end-of-run
// files, where "-" means stdout.
type CLI struct {
	verbose, logJSON                                      bool
	metrics, traceOut, reportJSON, cpuProfile, memProfile string
	stopProfiles                                          func()
}

// Bind declares the observability flags on fs.
func (c *CLI) Bind(fs *flag.FlagSet) {
	fs.BoolVar(&c.verbose, "v", false, "verbose (debug) logging")
	fs.BoolVar(&c.logJSON, "log-json", false, "structured JSON log lines instead of text")
	fs.StringVar(&c.metrics, "metrics", "", "write a Prometheus-text metrics snapshot to FILE (\"-\" = stdout)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a Chrome trace-event JSON file to FILE for Perfetto (\"-\" = stdout)")
	fs.StringVar(&c.reportJSON, "report-json", "", "write the machine-readable run report to FILE (\"-\" = stdout)")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to FILE")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a pprof heap profile (post-GC snapshot at exit) to FILE")
}

// Start applies the parsed flags: the log level and format, the
// profiles, and a fresh metrics registry or tracer when -metrics or
// -trace-out will write one. Stop must run before the command exits.
func (c *CLI) Start() error {
	if c.verbose {
		SetVerbosity(1)
	}
	SetLogJSON(c.logJSON)
	stop, err := StartProfiles(c.cpuProfile, c.memProfile)
	if err != nil {
		return err
	}
	c.stopProfiles = stop
	if c.metrics != "" {
		SetDefault(NewRegistry())
	}
	if c.traceOut != "" {
		SetDefaultTracer(NewTracer())
	}
	return nil
}

// Stop writes the profiles; idempotent, and a no-op before Start.
func (c *CLI) Stop() {
	if c.stopProfiles != nil {
		c.stopProfiles()
	}
}

// WantsArtifacts reports whether any end-of-run file was asked for.
func (c *CLI) WantsArtifacts() bool {
	return c.metrics != "" || c.traceOut != "" || c.reportJSON != ""
}

// WriteArtifacts writes the files the flags ask for: the metrics
// snapshot; the trace, which is trace's events (trace may be nil)
// followed by the tracer's wall-clock spans under the process name; and
// the report, through report.
func (c *CLI) WriteArtifacts(process string, trace func() []TraceEvent, report func(io.Writer) error) error {
	if c.metrics != "" {
		if err := toFile(c.metrics, Default().WritePrometheus); err != nil {
			return fmt.Errorf("writing -metrics: %w", err)
		}
	}
	if c.traceOut != "" {
		var events []TraceEvent
		if trace != nil {
			events = trace()
		}
		events = append(events, ProcessName(0, process))
		events = append(events, DefaultTracer().Events(0)...)
		if err := toFile(c.traceOut, func(w io.Writer) error {
			return WriteTraceEvents(w, events)
		}); err != nil {
			return fmt.Errorf("writing -trace-out: %w", err)
		}
		Logf("trace written to %s (open in Perfetto or chrome://tracing)", c.traceOut)
	}
	if c.reportJSON != "" {
		if err := toFile(c.reportJSON, report); err != nil {
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
