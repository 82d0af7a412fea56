package xp

import (
	"fmt"

	"pimnw/internal/cache"
	"pimnw/internal/datasets"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

// Runner executes experiments, memoising dataset samples and kernel
// calibrations across tables (Table 7 reuses Tables 2-6's datasets under a
// second cost table; Table 8 reuses Tables 5-6's projections). With
// Options.CacheDir set it also lazily opens the persistent result cache
// for the experiments that run over the serving path; Close flushes it.
type Runner struct {
	Opts    Options
	samples map[string][]datasets.Pair
	cals    map[string]calibration
	cache   *cache.Cache
}

// NewRunner creates a runner.
func NewRunner(opts Options) *Runner {
	return &Runner{
		Opts:    opts,
		samples: map[string][]datasets.Pair{},
		cals:    map[string]calibration{},
	}
}

// resultCache lazily opens the persistent result cache named by
// Options.CacheDir ("" = no cache, returns nil).
func (r *Runner) resultCache() (*cache.Cache, error) {
	if r.Opts.CacheDir == "" || r.cache != nil {
		return r.cache, nil
	}
	c, err := cache.Open(cache.Options{Dir: r.Opts.CacheDir})
	if err != nil {
		return nil, fmt.Errorf("xp: opening result cache: %w", err)
	}
	r.cache = c
	return c, nil
}

// Close flushes and releases the result cache, if one was opened.
func (r *Runner) Close() error {
	if r.cache == nil {
		return nil
	}
	c := r.cache
	r.cache = nil
	return c.Close()
}

// sampleFor returns (and caches) the dataset's calibration sample.
func (r *Runner) sampleFor(d *dsDef) []datasets.Pair {
	if s, ok := r.samples[d.key]; ok {
		return s
	}
	s := d.sample(r.Opts)
	r.samples[d.key] = s
	return s
}

// calibrationFor returns (and caches) the kernel calibration for a dataset
// under a cost table.
func (r *Runner) calibrationFor(d *dsDef, costs pim.CostTable) (calibration, error) {
	key := d.key + "/" + costs.Name
	if c, ok := r.cals[key]; ok {
		return c, nil
	}
	kcfg, err := r.kernelConfig(costs, d.traceback)
	if err != nil {
		return calibration{}, err
	}
	cal, err := calibrate(kcfg, r.sampleFor(d))
	if err != nil {
		return cal, fmt.Errorf("xp: calibrating %s/%s: %w", d.key, costs.Name, err)
	}
	r.cals[key] = cal
	return cal, nil
}

// TableIDs lists every experiment the runner knows, in paper order, with
// the extension studies last.
func TableIDs() []string {
	return []string{"1", "2", "3", "4", "5", "6", "7", "8", "utilization", "ablation", "hybrid", "wfa", "balance"}
}

// Table runs one experiment by ID ("1".."8", "utilization", "ablation").
func (r *Runner) Table(id string) (Table, error) {
	sp := obs.StartSpan("xp.table")
	sp.SetAttr("id", id)
	defer sp.End()
	switch id {
	case "1":
		return r.table1()
	case "2", "3", "4", "5", "6":
		d := findDS(id)
		return r.runtimeTable(d)
	case "7":
		return r.table7()
	case "8":
		return r.table8()
	case "utilization":
		return r.utilizationTable()
	case "ablation":
		return r.ablationTable()
	case "hybrid":
		return r.hybridTable()
	case "wfa":
		return r.wfaTable()
	case "balance":
		return r.balanceTable()
	default:
		return Table{}, fmt.Errorf("xp: unknown table %q (want %v)", id, TableIDs())
	}
}

// All runs every experiment in paper order.
func (r *Runner) All() ([]Table, error) {
	var out []Table
	for _, id := range TableIDs() {
		t, err := r.Table(id)
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
	return out, nil
}
