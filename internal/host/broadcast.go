package host

import (
	"fmt"
	"math"

	"pimnw/internal/kernel"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

// PairIndex identifies one (i,j) pair of an all-against-all comparison,
// i < j.
type PairIndex struct{ I, J int }

// AllPairIndices enumerates the n·(n-1)/2 comparisons of an n-sequence
// all-against-all run in row-major order.
func AllPairIndices(n int) []PairIndex {
	out := make([]PairIndex, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, PairIndex{i, j})
		}
	}
	return out
}

// AlignAllPairs runs the §5.3 workflow: the whole dataset is small enough
// to reside in a single DPU's MRAM, so it is broadcast once to every DPU
// and each DPU is statically assigned an equal share of the quadratic
// comparison list (no CIGAR — score only). Result IDs index into
// AllPairIndices(len(seqs)).
func AlignAllPairs(cfg Config, seqs []seq.Seq) (*Report, []Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Kernel.Traceback {
		return nil, nil, fmt.Errorf("host: all-against-all mode is score-only (§5.3); disable Traceback")
	}
	if cfg.Faults.Enabled() {
		return nil, nil, fmt.Errorf("host: fault injection applies to the batch pipeline only; disable Faults for all-against-all mode")
	}
	if cfg.Escalate {
		return nil, nil, fmt.Errorf("host: the escalation ladder applies to the batch pipeline only; disable Escalate for all-against-all mode")
	}
	if cfg.Verify {
		return nil, nil, fmt.Errorf("host: result validation needs CIGARs and all-against-all mode is score-only; disable Verify")
	}
	rep := newReport(cfg.TraceID)
	if len(seqs) < 2 {
		return rep, nil, nil
	}
	sp := obs.StartSpan("host.align_all_pairs")
	sp.SetAttrInt("seqs", int64(len(seqs)))
	defer sp.End()

	var datasetBytes int64
	for _, s := range seqs {
		datasetBytes += int64((len(s)+3)/4) + pairDescriptorBytes
	}
	indices := AllPairIndices(len(seqs))
	nDPUs := cfg.PIM.DPUs()

	type dpuOut struct {
		out  kernel.DPUOutcome
		used bool
	}
	outs := make([]dpuOut, nDPUs)
	err := parallelFor(cfg.workers(), nDPUs, func(di int) error {
		// Balanced static split: every DPU gets the same number of
		// comparisons give or take one (§5.3's "same number of
		// alignments"), keeping the intra-rank completion spread small.
		lo := di * len(indices) / nDPUs
		hi := (di + 1) * len(indices) / nDPUs
		if lo == hi {
			return nil
		}
		d := cfg.PIM.NewDPU(di)
		// One root span per DPU so concurrent DPUs get their own lanes.
		dsp := obs.StartSpan("host.dpu")
		dsp.SetAttrInt("dpu", int64(di))
		defer dsp.End()
		// Broadcast: every DPU holds the full packed dataset.
		esp := dsp.Child("host.encode")
		offs := make([]int, len(seqs))
		for si, s := range seqs {
			off, err := d.MRAM.Alloc(seq.PackedSize(len(s)))
			if err != nil {
				esp.End()
				return fmt.Errorf("host: dataset does not fit one MRAM bank: %w", err)
			}
			seq.PackInto(d.MRAM.Bytes(off, seq.PackedSize(len(s))), s)
			offs[si] = off
		}
		kp := make([]kernel.Pair, 0, hi-lo)
		for id := lo; id < hi; id++ {
			pi := indices[id]
			kp = append(kp, kernel.Pair{
				ID:   id,
				AOff: offs[pi.I], ALen: len(seqs[pi.I]),
				BOff: offs[pi.J], BLen: len(seqs[pi.J]),
			})
		}
		esp.End()
		ksp := dsp.Child("host.kernel")
		out, err := kernel.Run(d, cfg.Kernel, kp)
		ksp.End()
		if err != nil {
			return fmt.Errorf("host: DPU %d: %w", di, err)
		}
		outs[di] = dpuOut{out: out, used: true}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Timeline: one broadcast transfer, ranks compute concurrently, tiny
	// per-rank result collections serialised on the bus afterwards.
	csp := sp.Child("host.collect")
	defer csp.End()
	inDur := cfg.PIM.HostTransferSeconds(datasetBytes)
	launch := cfg.PIM.RankLaunchOverheadUS * 1e-6
	var results []Result
	var utilSum float64
	rankKernel := make([]float64, cfg.PIM.Ranks)
	rankFastest := make([]float64, cfg.PIM.Ranks)
	rankBytesOut := make([]int64, cfg.PIM.Ranks)
	rankStats := make([]pim.DPUStats, cfg.PIM.Ranks)
	rankLoaded := make([]int, cfg.PIM.Ranks)
	for i := range rankFastest {
		rankFastest[i] = math.Inf(1)
	}
	for di := range outs {
		o := &outs[di]
		if !o.used {
			continue
		}
		r := di / pim.DPUsPerRank
		sec := cfg.PIM.CyclesToSeconds(o.out.Stats.Cycles)
		if sec > rankKernel[r] {
			rankKernel[r] = sec
		}
		if sec < rankFastest[r] {
			rankFastest[r] = sec
		}
		rankLoaded[r]++
		rankStats[r].Add(o.out.Stats)
		u := o.out.Stats.Utilization()
		utilSum += u
		if u < rep.UtilizationMin {
			rep.UtilizationMin = u
		}
		for _, res := range o.out.Results {
			rankBytesOut[r] += resultHeaderBytes
			rep.TotalCells += res.Cells
			results = append(results, Result{PairResult: res, Rank: r, DPU: di})
		}
		rep.TotalInstr += o.out.Stats.Instr
	}

	busFree := inDur
	var makespan float64
	for r := 0; r < cfg.PIM.Ranks; r++ {
		if rankLoaded[r] == 0 {
			continue
		}
		kEnd := inDur + launch + rankKernel[r]
		outStart := math.Max(kEnd, busFree)
		outDur := cfg.PIM.HostTransferSeconds(rankBytesOut[r])
		busFree = outStart + outDur
		end := outStart + outDur
		if end > makespan {
			makespan = end
		}
		fastest := rankFastest[r]
		if math.IsInf(fastest, 1) {
			fastest = 0
		}
		rep.Ranks = append(rep.Ranks, RankStats{
			Rank: r, Batch: 0, StartSec: 0, TransferInSec: inDur,
			KernelSec: rankKernel[r], FastestDPUSec: fastest,
			TransferOutSec: outDur, EndSec: end,
			BytesIn: datasetBytes, BytesOut: rankBytesOut[r],
			DPUStats: rankStats[r], LoadedDPUs: rankLoaded[r],
		})
		rep.KernelSecSum += rankKernel[r]
		rep.TransferOutSec += outDur
		rep.BytesOut += rankBytesOut[r]
	}
	loadedDPUs := 0
	for _, n := range rankLoaded {
		loadedDPUs += n
	}
	if loadedDPUs > 0 {
		rep.UtilizationMean = utilSum / float64(loadedDPUs)
	}
	rep.TransferInSec = inDur
	rep.BytesIn = datasetBytes
	rep.MakespanSec = makespan
	rep.Alignments = len(results)
	rep.Batches = 1
	annotateResults(cfg.Kernel, rep, results)
	rep.publishMetrics()
	return rep, results, nil
}
