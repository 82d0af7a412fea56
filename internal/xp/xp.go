// Package xp is the experiment harness: one runner per table of the
// paper's evaluation section (§5), each producing a side-by-side
// paper-versus-reproduction table. Accuracy experiments (Table 1) run the
// real algorithms on sampled pairs; runtime experiments (Tables 2-6) run
// scaled datasets through the full simulated stack, calibrate per-pair
// kernel constants from those runs, and project the paper-scale workloads
// onto the host's discrete-event timeline; Tables 7 and 8 derive from the
// same machinery under the second cost table and the power model.
package xp

import (
	"fmt"
	"math"
	"strings"

	"pimnw/internal/host"
)

// Options tunes every experiment runner.
type Options struct {
	// Quick shrinks sample sizes and scales so the whole suite runs in
	// seconds (used by tests and benchmarks); the full defaults target a
	// few minutes on a laptop.
	Quick bool
	// Samples overrides the per-dataset accuracy sample count (0 = auto).
	Samples int
	// Seed offsets every generator seed, for variance studies.
	Seed int64
	// Host carries the simulated-run options shared with pimalign and
	// alignd (fault injection and recovery bounds, the result-integrity
	// ladder, lane width, fleet, host-side workers) into every batch
	// experiment and calibration; the zero value is the paper's perfect
	// single fabric. Band, Ranks and ScoreOnly are set per experiment.
	Host host.Options
	// CacheDir attaches the persistent result cache to the batch
	// experiments that run over the serving path, so repeated suites skip
	// already-certified pairs ("" = no cache). Close the runner to flush it.
	CacheDir string
}

// Table is a rendered experiment outcome.
type Table struct {
	ID     string // "1".."8", or a named extra ("utilization", ...)
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as aligned text.
func (t Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// RenderMarkdown formats the table as GitHub-flavoured markdown (the
// format EXPERIMENTS.md embeds).
func (t Table) RenderMarkdown() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### Table %s — %s\n\n", t.ID, t.Title)
	sb.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sb.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, row := range t.Rows {
		sb.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n*%s*\n", n)
	}
	return sb.String()
}

// fmtSecs renders seconds compactly.
func fmtSecs(s float64) string {
	switch {
	case math.IsNaN(s):
		return "-"
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.1f", s)
	default:
		return fmt.Sprintf("%.3f", s)
	}
}

// fmtX renders a speedup factor.
func fmtX(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "-"
	}
	return fmt.Sprintf("%.1fx", v)
}

// fmtPct renders a 0..1 fraction as a percentage.
func fmtPct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*v)
}
