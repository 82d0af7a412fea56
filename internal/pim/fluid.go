package pim

import (
	"fmt"
	"math"
)

// FluidSimulate runs the fast performance model: between events, the
// pipeline is a fluid resource serving the k currently-executing tasklets
// at an aggregate rate of min(k/11, 1) instructions per cycle (each tasklet
// progressing at min(1/11, 1/k)), which is the exact behaviour of the
// round-robin issue stage in steady state. DMA transfers are served one at
// a time at 2 B/cycle plus setup. Events are segment completions and each
// touches only the live tasklets, so the cost is O(events × live
// tasklets), letting the experiment harness simulate full-size kernels
// that would take hours under ExactSimulate. The two models are
// cross-validated in the package tests (within a few percent). The update
// order — tasklets in ascending order each step, barrier releases in
// arrival order, DMA in FIFO order — is part of the model: it decides the
// floating-point rounding of every statistic.
func FluidSimulate(run *DPURun) (DPUStats, error) {
	s := &run.sim
	if err := s.start(run); err != nil {
		return DPUStats{}, err
	}
	dmaActive := -1
	var now float64
	var issueIntegral, dmaIntegral, barrierIntegral float64
	const eps = 1e-9
	for {
		// Activate the DMA engine if idle.
		if dmaActive < 0 && s.head < len(s.dma) {
			dmaActive = s.dma[s.head]
			s.head++
			s.ts[dmaActive].state = stDMAActive
		}

		// Count executing and barrier-blocked tasklets, find the horizon.
		k, nb := 0, 0
		for _, i := range s.live {
			switch s.ts[i].state {
			case stExec:
				k++
			case stBarrier:
				nb++
			}
		}
		if k == 0 && dmaActive < 0 {
			break // all done, or deadlocked on barriers (checked below)
		}
		perTaskletRate := 0.0
		if k > 0 {
			perTaskletRate = math.Min(1.0/PipelineReentry, 1.0/float64(k))
		}
		dt := math.Inf(1)
		for _, i := range s.live {
			if t := &s.ts[i]; t.state == stExec && perTaskletRate > 0 {
				if d := t.remaining / perTaskletRate; d < dt {
					dt = d
				}
			}
		}
		if dmaActive >= 0 {
			if d := s.ts[dmaActive].remaining; d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			break
		}
		if dt < eps {
			dt = eps
		}

		now += dt
		aggRate := float64(k) * perTaskletRate // = min(k/11, 1)
		issueIntegral += float64(aggRate * dt)
		barrierIntegral += float64(float64(nb) * dt)
		if dmaActive >= 0 {
			dmaIntegral += dt
		}
		// A barrier released mid-sweep puts later tasklets back in Exec
		// before the sweep reaches them; they are charged this step too.
		var finishedDMA = -1
		for _, i := range s.live {
			t := &s.ts[i]
			switch t.state {
			case stExec:
				t.remaining -= float64(perTaskletRate * dt)
				if t.remaining < eps {
					s.advance(i)
				}
			case stDMAActive:
				t.remaining -= dt
				if t.remaining < eps {
					finishedDMA = i
				}
			}
		}
		if finishedDMA >= 0 {
			dmaActive = -1
			s.advance(finishedDMA)
		}
		live := s.live[:0]
		for _, i := range s.live {
			if s.ts[i].state != stDone {
				live = append(live, i)
			}
		}
		s.live = live
	}

	stats := s.stats
	if err := s.stuck(); err != nil {
		return stats, err
	}
	stats.Cycles = int64(math.Ceil(now))
	stats.IssueCycles = int64(issueIntegral + 0.5)
	stats.DMACycles = int64(dmaIntegral + 0.5)
	stats.BarrierCycles = int64(barrierIntegral + 0.5)
	stats.publish()
	return stats, nil
}

// Tasklet states of the simulators.
const (
	stExec = iota
	stDMAQueued
	stDMAActive // the fluid model's transfer in service
	stBarrier
	stDone
)

// simTasklet is one tasklet's position in its trace.
type simTasklet struct {
	segs      []Segment
	idx       int
	remaining float64 // instructions (Exec) or engine cycles (DMA)
	state     int
	next      int // the tasklet parked after this one on its barrier
}

// barrier is one barrier group's rendezvous: members, arrivals so far, and
// the parked tasklets as a FIFO linked through simTasklet.next.
type barrier struct{ size, arrived, head, tail int }

// simState is the tasklet state machine both simulators drive, dense and
// reused across runs: tasklets and barrier groups are slices indexed by
// tasklet and group, the DMA queue is a FIFO read from head, and live
// lists the tasklets not yet done in ascending order.
type simState struct {
	ts       []simTasklet
	live     []int
	barriers []barrier
	dma      []int // dma[head:] is queued
	head     int
	stats    DPUStats // instructions and DMA traffic of the segments started
}

// start loads run's traces into the state, reusing its storage, and moves
// every tasklet to its first blocking segment. Barrier groups are dense,
// one per pool at most, so a group must lie in [0, MaxTasklets).
func (s *simState) start(run *DPURun) error {
	if len(run.Traces) == 0 {
		return fmt.Errorf("pim: empty run")
	}
	s.ts, s.live, s.barriers, s.dma, s.head = s.ts[:0], s.live[:0], s.barriers[:0], s.dma[:0], 0
	s.stats = DPUStats{}
	for _, tr := range run.Traces {
		var seen uint32
		for _, seg := range tr.Segs {
			if seg.Kind != SegBarrier {
				continue
			}
			g := seg.Arg
			if g < 0 || g >= MaxTasklets {
				return fmt.Errorf("pim: barrier group %d outside 0..%d", g, MaxTasklets-1)
			}
			for int64(len(s.barriers)) <= g {
				s.barriers = append(s.barriers, barrier{head: -1, tail: -1})
			}
			if seen&(1<<g) == 0 {
				seen |= 1 << g
				s.barriers[g].size++
			}
		}
		s.ts = append(s.ts, simTasklet{segs: tr.Segs, idx: -1})
	}
	for i := range s.ts {
		s.advance(i)
	}
	for i := range s.ts {
		if s.ts[i].state != stDone {
			s.live = append(s.live, i)
		}
	}
	return nil
}

// advance moves tasklet i to its next blocking segment, releasing the
// barrier its arrival completes.
func (s *simState) advance(i int) {
	t := &s.ts[i]
	for {
		t.idx++
		if t.idx >= len(t.segs) {
			t.state = stDone
			return
		}
		seg := t.segs[t.idx]
		switch seg.Kind {
		case SegExec:
			t.state, t.remaining = stExec, float64(seg.Arg)
			s.stats.Instr += seg.Arg
			return
		case SegDMARead, SegDMAWrite:
			t.state, t.remaining = stDMAQueued, float64(DMACycles(seg.Arg))
			s.stats.DMABytes += seg.Arg
			s.stats.DMATransfers += (seg.Arg + DMAMaxBytes - 1) / DMAMaxBytes
			s.dma = append(s.dma, i)
			return
		case SegBarrier:
			b := &s.barriers[seg.Arg]
			if b.arrived++; b.arrived < b.size {
				t.state, t.next = stBarrier, -1
				if b.tail < 0 {
					b.head = i
				} else {
					s.ts[b.tail].next = i
				}
				b.tail = i
				return
			}
			// Detach the parked list first: a released tasklet may park
			// on this group again before the release finishes.
			j := b.head
			b.arrived, b.head, b.tail = 0, -1, -1
			for j >= 0 {
				next := s.ts[j].next
				s.advance(j)
				j = next
			}
		}
	}
}

// stuck reports a run that ended with tasklets parked on a barrier or
// otherwise unfinished.
func (s *simState) stuck() error {
	for g, b := range s.barriers {
		if b.arrived > 0 {
			return fmt.Errorf("pim: %d tasklets deadlocked on barrier group %d", b.arrived, g)
		}
	}
	for i := range s.ts {
		if st := s.ts[i].state; st != stDone {
			return fmt.Errorf("pim: tasklet %d stalled in state %d", i, st)
		}
	}
	return nil
}
