// Package baseline is the CPU comparator of the paper's §5: a
// multi-threaded static-banded affine-gap aligner standing in for the
// KSW2/minimap2 OpenMP implementation the paper benchmarks against. The
// worker pool plays OpenMP's role; core's static-band engine, whose query
// profile and split score-only row loop keep base comparisons and
// traceback tests out of the inner loop, plays KSW2's kernel. Calibrated
// throughput models of the paper's two Xeon servers (servers.go) let the
// experiment harness reproduce the tables' CPU columns at full scale.
package baseline

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"pimnw/internal/cigar"
	"pimnw/internal/core"
	"pimnw/internal/seq"
)

// Pair is one alignment request.
type Pair struct {
	ID   int
	A, B seq.Seq
}

// Options configures a baseline run.
type Options struct {
	Params core.Params
	// Band is the static band size; the paper's minimap2 runs use 128,
	// 256 or 512 depending on the dataset (Table 1).
	Band int
	// Threads is the worker-pool width; 0 means GOMAXPROCS.
	Threads int
	// Traceback selects CIGAR production.
	Traceback bool
	// Exact switches the engine from the static band to the full-matrix
	// Gotoh aligner (core.GotohScore/GotohAlign): O(m·n) work,
	// guaranteed-optimal results.
	// Band is ignored. This is the last rung of the host's degradation
	// ladder — the answer of record when no feasible band fits a pair.
	Exact bool
}

func (o Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// Validate rejects nonsensical options.
func (o Options) Validate() error {
	if err := o.Params.Validate(); err != nil {
		return err
	}
	if !o.Exact && o.Band < 2 {
		return fmt.Errorf("baseline: band %d too small", o.Band)
	}
	if o.Threads < 0 {
		return fmt.Errorf("baseline: negative thread count")
	}
	return nil
}

// Result is one alignment outcome.
type Result struct {
	ID     int
	Score  int32
	InBand bool
	Cigar  cigar.Cigar
	Cells  int64
}

// Outcome is a measured baseline run.
type Outcome struct {
	Results []Result
	// WallSeconds is the measured host wall-clock time of the compute
	// phase (this machine, not the paper's Xeons — use ServerModel to map
	// to the paper's hardware).
	WallSeconds float64
	Cells       int64
}

// Run aligns all pairs on a worker pool and measures the wall time.
func Run(opts Options, pairs []Pair) (Outcome, error) {
	if err := opts.Validate(); err != nil {
		return Outcome{}, err
	}
	results := make([]Result, len(pairs))
	start := time.Now()
	workChan := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < opts.threads(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker scratch, OpenMP thread-private style: every
			// alignment after the first reuses the same buffers.
			s := core.GetScratch()
			defer core.PutScratch(s)
			for i := range workChan {
				results[i] = alignOne(opts, s, pairs[i])
			}
		}()
	}
	for i := range pairs {
		workChan <- i
	}
	close(workChan)
	wg.Wait()

	out := Outcome{Results: results, WallSeconds: time.Since(start).Seconds()}
	for i := range results {
		out.Cells += results[i].Cells
	}
	return out, nil
}

func alignOne(opts Options, s *core.Scratch, p Pair) Result {
	var res core.Result
	switch {
	case opts.Exact && opts.Traceback:
		res = s.GotohAlign(p.A, p.B, opts.Params)
	case opts.Exact:
		res = s.GotohScore(p.A, p.B, opts.Params)
	case opts.Traceback:
		res = s.StaticBandAlign(p.A, p.B, opts.Params, opts.Band)
	default:
		res = s.StaticBandScore(p.A, p.B, opts.Params, opts.Band)
	}
	return Result{ID: p.ID, Score: res.Score, InBand: res.InBand, Cigar: res.Cigar, Cells: res.Cells}
}
