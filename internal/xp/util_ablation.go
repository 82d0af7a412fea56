package xp

import (
	"fmt"

	"pimnw/internal/kernel"
	"pimnw/internal/pim"
)

// utilizationTable reproduces the §5 execution-quality claims: 95-99 %
// pipeline utilisation at the 6x4 geometry, and a host orchestration
// overhead that is ~15 % for the short-read dataset and negligible for the
// long-read ones.
func (r *Runner) utilizationTable() (Table, error) {
	t := Table{
		ID:    "utilization",
		Title: "Pipeline utilisation and host overhead (40 ranks, asm kernel)",
		Header: []string{"Dataset", "Pipeline util (paper 95-99%)",
			"Host overhead (ours)", "Paper overhead"},
	}
	paperOverhead := map[string]string{
		"S1000": "15%", "S10000": "-", "S30000": "<0.1%", "16S": "low (broadcast)", "Pacbio": "-",
	}
	for i := range dsDefs {
		d := &dsDefs[i]
		cal, err := r.calibrationFor(d, pim.Asm)
		if err != nil {
			return t, err
		}
		var makespan float64
		if d.broadcast {
			makespan = projectBroadcast(ranksConfig(40), cal, d.fullPairs, d.pairBases, d.datasetBytes)
		} else {
			makespan = projectPairs(ranksConfig(40), cal, d.fullPairs, d.pairBases).MakespanSec
		}
		kernelPar := float64(d.fullPairs) * cal.secPerBase * d.pairBases / float64(ranksConfig(40).DPUs())
		overhead := 1 - kernelPar/makespan
		if overhead < 0 {
			overhead = 0
		}
		t.Rows = append(t.Rows, []string{
			d.key, fmtPct(cal.utilization), fmtPct(overhead), paperOverhead[d.key],
		})
	}
	return t, nil
}

// ablationTable sweeps the tasklet pool geometry (§4.2.3): pure
// alignment-level parallelism runs out of WRAM before filling the
// pipeline, pure anti-diagonal parallelism wastes tasklets on
// synchronisation, and the paper's hybrid 6x4 sits at the sweet spot.
func (r *Runner) ablationTable() (Table, error) {
	t := Table{
		ID:     "ablation",
		Title:  "Pool geometry ablation (P pools x T tasklets, S10000-like sample)",
		Header: []string{"Geometry", "Tasklets", "Status", "Relative time", "Pipeline util"},
	}
	d := findDS("S10000")
	sample := r.sampleFor(d)
	geometries := []kernel.Geometry{
		{Pools: 1, TaskletsPerPool: 16},
		{Pools: 2, TaskletsPerPool: 8},
		{Pools: 4, TaskletsPerPool: 4},
		{Pools: 6, TaskletsPerPool: 4}, // the paper's configuration
		{Pools: 8, TaskletsPerPool: 2},
		{Pools: 8, TaskletsPerPool: 1},
		{Pools: 12, TaskletsPerPool: 1},
		{Pools: 24, TaskletsPerPool: 1},
	}
	var baselineCycles int64
	for _, g := range geometries {
		kcfg, err := r.kernelConfig(pim.Asm, true)
		if err != nil {
			return t, err
		}
		kcfg.Geometry = g
		label := fmt.Sprintf("%dx%d", g.Pools, g.TaskletsPerPool)
		if err := kcfg.Validate(); err != nil {
			t.Rows = append(t.Rows, []string{label, fmt.Sprint(g.Tasklets()), "WRAM overflow", "-", "-"})
			continue
		}
		d0 := kcfg.PIM.NewDPU(0)
		kp := make([]kernel.Pair, 0, len(sample))
		for _, p := range sample {
			sp, err := kernel.StagePair(d0, p.ID, p.A, p.B)
			if err != nil {
				return t, err
			}
			kp = append(kp, sp)
		}
		out, err := kernel.Run(d0, kcfg, kp)
		if err != nil {
			return t, err
		}
		if g.Pools == 6 && g.TaskletsPerPool == 4 {
			baselineCycles = out.Stats.Cycles
		}
		t.Rows = append(t.Rows, []string{
			label, fmt.Sprint(g.Tasklets()), "ok",
			fmt.Sprintf("%d", out.Stats.Cycles),
			fmtPct(out.Stats.Utilization()),
		})
	}
	// Second pass: normalise cycle counts against the paper geometry.
	for _, row := range t.Rows {
		if row[3] == "-" {
			continue
		}
		var c int64
		fmt.Sscanf(row[3], "%d", &c)
		row[3] = fmt.Sprintf("%.2fx", float64(c)/float64(baselineCycles))
	}
	t.Notes = append(t.Notes,
		"geometries with more than ~9 single-tasklet pools exceed the WRAM budget (the paper's strategy-1 limit); fewer than 11 total tasklets cannot fill the pipeline")
	return t, nil
}
