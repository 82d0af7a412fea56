package host

import (
	"flag"

	"pimnw/internal/core"
	"pimnw/internal/kernel"
	"pimnw/internal/pim"
)

// Options is the user-facing description of a run on the paper's
// simulated server — what pimalign, alignd and the experiment harness let
// a caller choose. Config turns it into the Config the pipeline runs on;
// everything else about the server (cost table, kernel geometry, scoring
// model, DDR and MRAM figures, retry backoff) is the paper's and is fixed
// there, in one place.
type Options struct {
	// Band, Ranks and ScoreOnly have no flag here: the experiment harness
	// fixes them per table, so the commands that expose them bind them
	// to these fields themselves.
	Band      int
	Ranks     int
	ScoreOnly bool
	// Workers bounds the simulation's host-side parallelism (0 =
	// GOMAXPROCS). Not a flag.
	Workers int

	Lanes            string // auto, 16 or 64
	Fleet            string // see ParseFleet; "" = the single fabric
	FaultRate        float64
	FaultSeed        int64
	MaxRetries       int
	BatchDeadlineSec float64
	Escalation       bool
	MaxBand          int
	Verify           bool
}

// Bind registers the flags pimalign, alignd and experiments share, with
// their defaults, on fs.
func (o *Options) Bind(fs *flag.FlagSet) {
	fs.StringVar(&o.Lanes, "lanes", "auto", "DP lane width of the modelled DPU kernel: auto, 16 (saturating narrow lanes; the modelled narrow DPU kernel is score-only, the simulator already runs traceback in 16-bit lanes under auto) or 64 (pin the full-width engine)")
	fs.StringVar(&o.Fleet, "fleet", "", "shard the batch pipeline across a multi-backend fleet: comma-separated pim[:RANKS[@FREQMHZ]][~FAULTRATE] / cpu[:THREADS] entries (empty = the single fabric)")
	fs.Float64Var(&o.FaultRate, "fault-rate", 0, "per-DPU fault injection probability in [0,1] for the batch pipeline (0 = perfect fabric)")
	fs.Int64Var(&o.FaultSeed, "fault-seed", 1, "fault injection seed (deterministic per seed)")
	fs.IntVar(&o.MaxRetries, "max-retries", 3, "recovery attempts per batch beyond the first launch")
	fs.Float64Var(&o.BatchDeadlineSec, "batch-deadline", 0, "modelled per-attempt deadline in seconds; 0 = none (stalled DPUs are waited out)")
	fs.BoolVar(&o.Escalation, "escalation", false, "re-dispatch clipped/out-of-band pairs at doubled bands up to -max-band, degrading to score-only kernels then the exact CPU baseline")
	fs.IntVar(&o.MaxBand, "max-band", 0, "widest band the escalation ladder may try (0 = default cap)")
	fs.BoolVar(&o.Verify, "verify", false, "re-derive every traceback result's score from its CIGAR on the host; mismatches are treated as corruption and redispatched")
}

// Config builds the run configuration: the paper's server with the
// options applied. Verify needs CIGARs, so it is dropped for score-only
// runs. A fleet spec yields fresh backends (they carry health state), so
// call Config once per fleet lifetime.
func (o Options) Config() (Config, error) {
	laneWidth, err := kernel.ParseLaneWidth(o.Lanes)
	if err != nil {
		return Config{}, err
	}
	backends, err := ParseFleet(o.Fleet)
	if err != nil {
		return Config{}, err
	}
	pimCfg := pim.DefaultConfig()
	pimCfg.Ranks = o.Ranks
	return Config{
		PIM: pimCfg,
		Kernel: kernel.Config{
			Geometry:  kernel.DefaultGeometry(),
			Band:      o.Band,
			Params:    core.DefaultParams(),
			Costs:     pim.Asm,
			Traceback: !o.ScoreOnly,
			LaneWidth: laneWidth,
			PIM:       pimCfg,
		},
		Workers:          o.Workers,
		Faults:           pim.FaultConfig{Rate: o.FaultRate, Seed: o.FaultSeed},
		MaxRetries:       o.MaxRetries,
		BatchDeadlineSec: o.BatchDeadlineSec,
		RetryBackoffSec:  1e-3,
		Escalate:         o.Escalation,
		MaxBand:          o.MaxBand,
		Verify:           o.Verify && !o.ScoreOnly,
		Backends:         backends,
	}, nil
}
