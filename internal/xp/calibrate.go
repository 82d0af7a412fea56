package xp

import (
	"fmt"

	"pimnw/internal/datasets"
	"pimnw/internal/host"
	"pimnw/internal/kernel"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

// dpuBand is the adaptive band every DPU experiment uses (the paper's
// evaluated configuration).
const dpuBand = 128

// Host orchestration cost model (§4.1, §5): per dispatched pair the host
// reads, encodes and enqueues the sequences (~1.5 µs/pair reproduces the
// paper's 15 % overhead on S1000 vanishing to <1 % on S30000); in
// broadcast mode only the per-result interpretation remains.
const (
	hostPerPairSec   = 1.5e-6
	hostPerResultSec = 1e-7
)

// calibration holds the per-base kernel constants measured on one
// saturated DPU; full-scale projections multiply them by the paper-scale
// sequence volumes. Per-base (rather than per-pair) normalisation makes
// the calibration independent of the scaled read length.
type calibration struct {
	secPerBase      float64 // kernel seconds per (m+n) base of one pair
	bytesOutPerBase float64 // result bytes per (m+n) base
	utilization     float64
}

// hostConfig is the one place the harness turns its options into a run
// configuration: the paper's server at the evaluated band, with the given
// rank count and kernel mode.
func (r *Runner) hostConfig(ranks int, traceback bool) (host.Config, error) {
	o := r.Opts.Host
	o.Band, o.Ranks, o.ScoreOnly = dpuBand, ranks, !traceback
	return o.Config()
}

// kernelConfig builds the paper's DPU kernel configuration under a cost
// table.
func (r *Runner) kernelConfig(costs pim.CostTable, traceback bool) (kernel.Config, error) {
	cfg, err := r.hostConfig(pim.DefaultConfig().Ranks, traceback)
	cfg.Kernel.Costs = costs
	return cfg.Kernel, err
}

// calibrate stages the sample pairs on one DPU with all pools saturated
// and measures the length-normalised kernel constants.
func calibrate(kcfg kernel.Config, sample []datasets.Pair) (calibration, error) {
	var cal calibration
	if len(sample) == 0 {
		return cal, fmt.Errorf("xp: empty calibration sample")
	}
	sp := obs.StartSpan("xp.calibrate")
	sp.SetAttr("costs", kcfg.Costs.Name)
	sp.SetAttrInt("sample_pairs", int64(len(sample)))
	defer sp.End()
	d := kcfg.PIM.NewDPU(0)
	kp := make([]kernel.Pair, 0, len(sample))
	var bases int64
	for _, p := range sample {
		sp, err := kernel.StagePair(d, p.ID, p.A, p.B)
		if err != nil {
			return cal, err
		}
		bases += int64(len(p.A) + len(p.B))
		kp = append(kp, sp)
	}
	out, err := kernel.Run(d, kcfg, kp)
	if err != nil {
		return cal, err
	}
	var outBytes int64
	for _, r := range out.Results {
		outBytes += 16 + int64(len(r.Cigar))
	}
	cal.secPerBase = kcfg.PIM.CyclesToSeconds(out.Stats.Cycles) / float64(bases)
	cal.bytesOutPerBase = float64(outBytes) / float64(bases)
	cal.utilization = out.Stats.Utilization()
	return cal, nil
}

// projectPairs lays a paper-scale pair workload onto the discrete-event
// timeline: fullPairs alignments of pairBases total bases each, batched at
// pairsPerDPU alignments per DPU per launch.
func projectPairs(pimCfg pim.Config, cal calibration, fullPairs int64, pairBases float64) *host.Report {
	// Small batches keep the rank FIFO's tail quantisation negligible, as
	// the real host's dynamic queue does.
	const pairsPerDPU = 4
	batchPairs := int64(pairsPerDPU * pim.DPUsPerRank)
	nBatches := (fullPairs + batchPairs - 1) / batchPairs
	if nBatches < 1 {
		nBatches = 1
	}
	bytesInPerPair := pairBases/4 + 24 // 2-bit packed + descriptor
	kernelSecPerPair := cal.secPerBase * pairBases
	bytesOutPerPair := cal.bytesOutPerBase * pairBases

	batches := make([]host.SyntheticBatch, nBatches)
	remaining := fullPairs
	for i := range batches {
		n := batchPairs
		if n > remaining {
			n = remaining
		}
		remaining -= n
		perDPU := float64(n) / pim.DPUsPerRank
		batches[i] = host.SyntheticBatch{
			BytesIn:    int64(float64(n) * bytesInPerPair),
			BytesOut:   int64(float64(n) * bytesOutPerPair),
			KernelSec:  perDPU * kernelSecPerPair,
			LoadedDPUs: pim.DPUsPerRank,
		}
	}
	rep := host.Project(host.Config{PIM: pimCfg}, batches)
	rep.MakespanSec += float64(fullPairs) * hostPerPairSec
	return rep
}

// projectBroadcast prices the §5.3 all-against-all mode at full scale: one
// dataset broadcast, a static equal split of the comparisons, score-only.
func projectBroadcast(pimCfg pim.Config, cal calibration, fullPairs int64, pairBases float64, datasetBytes int64) float64 {
	perDPU := float64(fullPairs) / float64(pimCfg.DPUs())
	kernelSec := perDPU * cal.secPerBase * pairBases
	transfer := pimCfg.HostTransferSeconds(datasetBytes)
	collect := pimCfg.HostTransferSeconds(int64(float64(fullPairs) * 16))
	launch := pimCfg.RankLaunchOverheadUS * 1e-6
	return transfer + launch + kernelSec + collect + float64(fullPairs)*hostPerResultSec
}

// ranksConfig is the default PiM system restricted to a rank count.
func ranksConfig(ranks int) pim.Config {
	c := pim.DefaultConfig()
	c.Ranks = ranks
	return c
}
