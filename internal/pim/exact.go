package pim

import "fmt"

// ExactSimulate runs the cycle-stepped round-robin model of the DPU
// pipeline: one instruction issued per cycle at most, a given tasklet
// re-entering at most every PipelineReentry cycles, tasklets blocking on a
// shared single-channel DMA engine and on pool barriers. It is the
// reference model; FluidSimulate is validated against it. Complexity is
// O(total cycles), so use it for small runs (tests, calibration).
func ExactSimulate(run *DPURun) (DPUStats, error) {
	s := &run.sim
	if err := s.start(run); err != nil {
		return DPUStats{}, err
	}
	n := len(s.ts)
	nextIssue := make([]int64, n) // earliest cycle the pipeline may issue for each tasklet
	var stats DPUStats
	dmaActive := -1
	var dmaRemaining float64

	rr := 0
	var cycle int64
	for {
		allDone := true
		for i := range s.ts {
			if st := s.ts[i].state; st != stDone {
				allDone = false
				if st == stBarrier {
					stats.BarrierCycles++
				}
			}
		}
		if allDone {
			break
		}

		// DMA engine: activate the next queued transfer, progress 1 cycle.
		if dmaActive < 0 && s.head < len(s.dma) {
			dmaActive = s.dma[s.head]
			s.head++
			dmaRemaining = s.ts[dmaActive].remaining
		}
		if dmaActive >= 0 {
			stats.DMACycles++
			dmaRemaining--
			if dmaRemaining <= 0 {
				done := dmaActive
				dmaActive = -1
				s.advance(done)
			}
		}

		// Pipeline: issue for the first ready tasklet in round-robin order
		// whose re-entry restriction has elapsed.
		anyReady := false
		for k := 0; k < n; k++ {
			i := (rr + k) % n
			t := &s.ts[i]
			if t.state != stExec || t.remaining <= 0 {
				continue
			}
			anyReady = true
			if cycle < nextIssue[i] {
				continue
			}
			t.remaining--
			nextIssue[i] = cycle + PipelineReentry
			stats.Instr++
			stats.IssueCycles++
			rr = (i + 1) % n
			if t.remaining == 0 {
				s.advance(i)
			}
			break
		}
		// Idle system with nothing in flight: any tasklet still parked on a
		// barrier can never be released.
		if !anyReady && dmaActive < 0 && s.head == len(s.dma) {
			for i := range s.ts {
				if s.ts[i].state == stBarrier {
					return stats, fmt.Errorf("pim: deadlock at cycle %d: live tasklets wait on a barrier", cycle)
				}
			}
		}
		cycle++
		// Safety valve against modelling bugs: a run must progress.
		if cycle > 1<<40 {
			return stats, fmt.Errorf("pim: exact simulation exceeded 2^40 cycles")
		}
	}

	stats.DMABytes, stats.DMATransfers = s.stats.DMABytes, s.stats.DMATransfers
	if err := s.stuck(); err != nil {
		return stats, err
	}
	stats.Cycles = cycle
	stats.publish()
	return stats, nil
}
