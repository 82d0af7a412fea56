package host

// SyntheticBatch describes one rank-sized batch for full-scale projection:
// the experiment harness measures per-pair kernel constants on a scaled
// run, then lays the paper-scale batch counts onto the same discrete-event
// timeline used for measured batches. This is how the harness reports
// full-dataset runtimes (Tables 2-6) without simulating ten million
// alignments cell by cell.
type SyntheticBatch struct {
	BytesIn    int64
	BytesOut   int64
	KernelSec  float64 // slowest DPU of the rank
	LoadedDPUs int
}

// Project schedules synthetic batches and returns the timeline report.
// Only the PIM fields of the configuration are used.
func Project(cfg Config, batches []SyntheticBatch) *Report {
	rep := newReport("")
	execs := make([]batchExec, len(batches))
	for i, b := range batches {
		execs[i] = batchExec{
			Counters:   Counters{BytesIn: b.BytesIn, BytesOut: b.BytesOut, KernelSecSum: b.KernelSec},
			minDPUSec:  b.KernelSec,
			loadedDPUs: b.LoadedDPUs,
			utilMin:    1,
		}
	}
	scheduleTimeline(cfg, execs, rep)
	rep.Batches = len(batches)
	return rep
}
