package host

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"

	"pimnw/internal/obs"
)

// BackendStats is the per-backend slice of a fleet report: which share of
// the workload each server took, how long its concurrent window ran, and
// what the recovery path moved off it.
type BackendStats struct {
	Name         string  `json:"name"`
	Ranks        int     `json:"ranks"`
	Pairs        int     `json:"pairs"`
	Batches      int     `json:"batches"`
	MakespanSec  float64 `json:"makespan_sec"`
	KernelSecSum float64 `json:"kernel_sec_sum"`
	// Redispatched counts pairs moved OFF this backend after it was lost;
	// Down marks a backend that went down during the run.
	Redispatched int  `json:"redispatched,omitempty"`
	Down         bool `json:"down,omitempty"`
}

// PlacementAssign distributes item workloads over heterogeneous machines:
// the LPT heuristic one level up, on modelled seconds instead of raw
// load. Items are taken in decreasing-load order and each goes to the
// machine whose completion time (current assigned load plus the item,
// through the machine's linear cost model secPerUnit[m]) stays smallest,
// ties to the lowest machine index. It returns the per-machine item
// indices; machines may come back empty.
func PlacementAssign(loads []int64, secPerUnit []float64) [][]int {
	n := len(secPerUnit)
	buckets := make([][]int, n)
	if n == 0 || len(loads) == 0 {
		return buckets
	}
	order := make([]int, len(loads))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return loads[order[a]] > loads[order[b]] })
	assigned := make([]int64, n)
	for _, idx := range order {
		best, bestSec := 0, 0.0
		for m := 0; m < n; m++ {
			sec := float64(assigned[m]+loads[idx]) * secPerUnit[m]
			if m == 0 || sec < bestSec {
				best, bestSec = m, sec
			}
		}
		buckets[best] = append(buckets[best], idx)
		assigned[best] += loads[idx]
	}
	return buckets
}

// shardOutcome is one backend's finished share of a fleet round.
type shardOutcome struct {
	backend int   // index into cfg.Backends
	ids     []int // the shard's pairs, as IDs of the fleet's pairs
	rep     *Report
	results []Result
	lost    bool // ErrBackendDown: redispatch the shard
}

// alignFleet shards one workload across Config.Backends by estimated
// makespan, runs every shard through the full per-backend pipeline
// (dispatch, per-DPU recovery, escalation ladder) concurrently, routes
// whole-backend loss back through placement onto the survivors, and
// merges the per-backend timelines into one report whose makespan is the
// union of the concurrent backend windows — never the back-to-back sum.
// pairs[i].ID must be i; a shard is renumbered the same way on its way
// down and mapped back on its way up. Results come back in input order,
// bit-identical to the single-fabric run on the same pairs.
func alignFleet(cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error) {
	backends := cfg.Backends

	// Rank-ID offsets are fixed by fleet position (not by which backends
	// happen to be alive), so rank numbering is stable across runs that
	// lose different servers.
	rankOff := make([]int, len(backends))
	off := 0
	for i, be := range backends {
		rankOff[i] = off
		off += be.Ranks()
	}

	fsp := sp.Child("host.fleet")
	fsp.SetAttrInt("backends", int64(len(backends)))
	fsp.SetAttrInt("pairs", int64(len(pairs)))
	defer fsp.End()

	perBackend := make([]*Report, len(backends))
	stats := make([]BackendStats, len(backends))
	for i, be := range backends {
		stats[i] = BackendStats{Name: be.Name(), Ranks: be.Ranks()}
	}
	ordered := make([]Result, len(pairs))
	redispatched := 0

	remaining := make([]int, len(pairs))
	for i := range remaining {
		remaining[i] = i
	}
	for round := 0; len(remaining) > 0; round++ {
		var alive []int
		for i, be := range backends {
			if be.Healthy() {
				alive = append(alive, i)
			}
		}
		if len(alive) == 0 {
			return nil, nil, fmt.Errorf("host: every fleet backend is down with %d pairs unplaced", len(remaining))
		}

		// Cost-model-driven placement: balance estimated seconds, not raw
		// cells, so a 10-rank server takes a proportionally smaller shard
		// than a 40-rank one.
		loads := make([]int64, len(remaining))
		for i, id := range remaining {
			loads[i] = pairs[id].Workload(cfg.Kernel.Band)
		}
		secPerUnit := make([]float64, len(alive))
		for i, bi := range alive {
			secPerUnit[i] = backends[bi].EstimateSec(&cfg, placementUnitLoad) / placementUnitLoad
		}
		buckets := PlacementAssign(loads, secPerUnit)

		outs := make([]shardOutcome, len(alive))
		if err := parallelFor(cfg.workers(), len(alive), func(si int) error {
			bi := alive[si]
			bucket := buckets[si]
			outs[si] = shardOutcome{backend: bi}
			if len(bucket) == 0 {
				return nil
			}
			ids := make([]int, len(bucket))
			shard := make([]Pair, len(bucket))
			for i, idx := range bucket {
				ids[i] = remaining[idx]
				shard[i] = Pair{ID: i, A: pairs[ids[i]].A, B: pairs[ids[i]].B}
			}
			outs[si].ids = ids
			ssp := fsp.Child("host.fleet_shard")
			ssp.SetAttr("backend", backends[bi].Name())
			ssp.SetAttrInt("pairs", int64(len(shard)))
			rep, results, err := alignOnceOn(backends[bi], cfg, shard, ssp)
			ssp.End()
			if errors.Is(err, ErrBackendDown) {
				outs[si].lost = true
				return nil
			}
			if err != nil {
				return err
			}
			outs[si].rep, outs[si].results = rep, results
			return nil
		}); err != nil {
			return nil, nil, err
		}

		remaining = nil
		for _, out := range outs {
			bi := out.backend
			if out.lost {
				stats[bi].Down = true
				stats[bi].Redispatched += len(out.ids)
				redispatched += len(out.ids)
				remaining = append(remaining, out.ids...)
				slog.Info("fleet backend lost", "kind", "fleet", "trace_id", cfg.TraceID,
					"backend", backends[bi].Name(), "pairs", len(out.ids))
				continue
			}
			if out.rep == nil {
				continue // empty bucket
			}
			stats[bi].Pairs += len(out.ids)
			name := backends[bi].Name()
			for i, r := range out.results {
				r.ID = out.ids[i]
				r.Backend = name
				ordered[r.ID] = r
			}
			out.rep.relabel(func(i int) int { return out.ids[i] })
			for i := range out.rep.Ranks {
				out.rep.Ranks[i].Backend = name
			}
			if perBackend[bi] == nil {
				perBackend[bi] = out.rep
			} else {
				// The same server's redispatch rounds run back-to-back on
				// its own timeline.
				perBackend[bi].Then(out.rep)
			}
		}
	}

	// Cross-backend merge: the servers ran concurrently from t=0, so the
	// fleet makespan is the union (max) of the per-backend windows.
	rep := newReport(cfg.TraceID)
	for bi, sub := range perBackend {
		if sub == nil {
			continue
		}
		stats[bi].Batches = sub.Batches
		stats[bi].MakespanSec = sub.MakespanSec
		stats[bi].KernelSecSum = sub.KernelSecSum
		rep.Alongside(sub, rankOff[bi])
	}
	rep.Redispatches += redispatched
	rep.Backends = stats
	return rep, ordered, nil
}

// placementUnitLoad is the reference workload EstimateSec is probed with;
// cost models are linear in load, so any positive value works.
const placementUnitLoad = 1 << 20
