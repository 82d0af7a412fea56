package host

import (
	"sort"
	"strconv"

	"pimnw/internal/obs"
)

// Trace-lane layout for the modelled timeline: every rank is a Chrome
// trace process (pid = rank + 1; pid 0 is reserved for the host's
// wall-clock spans), with three thread lanes showing the §4.1 pipeline —
// the input transfer serialising on the DDR bus, the rank-concurrent
// kernel execution, and the barrier-gated result collection.
// A fourth lane appears only on ranks that ran recovery: fault-detection
// instants (ph "i") and the stretch of the kernel window spent retrying.
// Above the rank processes, a run with band failures or a degradation
// ladder gets one extra "integrity" process (pid = max rank pid + 1): a
// slice per escalation round laid over the makespan, plus a summary
// instant carrying the run's integrity counters.
const (
	tidTransferIn  = 0
	tidKernel      = 1
	tidTransferOut = 2
	tidRecovery    = 3
	tidIntegrity   = 0 // only thread of the integrity process
)

// ChromeTraceEvents converts the simulated timeline into Chrome
// trace-event JSON events (ph "X" complete slices, microsecond
// timestamps), one slice per pipeline stage per rank batch, plus ph "M"
// metadata naming the tracks. The result loads directly in Perfetto or
// chrome://tracing and supersedes the ASCII Timeline for deep runs: kernel
// slices carry the rank-summed pim.DPUStats breakdown (instructions, DMA
// bytes/cycles, barrier-wait cycles, pipeline utilization) as args.
// Serialise with obs.WriteTraceEvents, appending obs.Tracer.Events(0)
// first to get the host's wall-clock spans into the same file.
func (r *Report) ChromeTraceEvents() []obs.TraceEvent {
	var events []obs.TraceEvent
	// When the run carries a request trace ID, stamp it into every slice
	// and instant so a Perfetto query can pull one request's lanes out of
	// a multi-request capture.
	stamp := func(args map[string]any) map[string]any {
		if r.TraceID != "" {
			args["trace_id"] = r.TraceID
		}
		return args
	}
	seen := map[int]bool{}
	recoveryLanes := map[int]bool{}
	for _, rs := range r.Ranks {
		pid := rs.Rank + 1
		if !seen[pid] {
			seen[pid] = true
			proc := "rank " + strconv.Itoa(rs.Rank) + " (modelled)"
			if rs.Backend != "" {
				proc = rs.Backend + " " + proc
			}
			events = append(events,
				obs.ProcessName(pid, proc),
				obs.ThreadName(pid, tidTransferIn, "bus in"),
				obs.ThreadName(pid, tidKernel, "kernel"),
				obs.ThreadName(pid, tidTransferOut, "bus out"))
		}
		kStart := rs.StartSec + rs.TransferInSec
		events = append(events,
			obs.TraceEvent{
				Name: "xfer_in", Ph: "X",
				Ts: rs.StartSec * 1e6, Dur: rs.TransferInSec * 1e6,
				Pid: pid, Tid: tidTransferIn,
				Args: stamp(map[string]any{"batch": rs.Batch, "bytes": rs.BytesIn}),
			},
			obs.TraceEvent{
				Name: "kernel", Ph: "X",
				Ts: kStart * 1e6, Dur: rs.KernelSec * 1e6,
				Pid: pid, Tid: tidKernel,
				Args: stamp(map[string]any{
					"batch":          rs.Batch,
					"loaded_dpus":    rs.LoadedDPUs,
					"fastest_dpu_s":  rs.FastestDPUSec,
					"instructions":   rs.DPUStats.Instr,
					"dma_bytes":      rs.DPUStats.DMABytes,
					"dma_cycles":     rs.DPUStats.DMACycles,
					"issue_cycles":   rs.DPUStats.IssueCycles,
					"barrier_cycles": rs.DPUStats.BarrierCycles,
					"utilization":    rs.DPUStats.Utilization(),
				}),
			},
			obs.TraceEvent{
				Name: "xfer_out", Ph: "X",
				Ts: (rs.EndSec - rs.TransferOutSec) * 1e6, Dur: rs.TransferOutSec * 1e6,
				Pid: pid, Tid: tidTransferOut,
				Args: stamp(map[string]any{"batch": rs.Batch, "bytes": rs.BytesOut}),
			})
		if rs.RetrySec > 0 || len(rs.Faults) > 0 {
			if !recoveryLanes[pid] {
				recoveryLanes[pid] = true
				events = append(events, obs.ThreadName(pid, tidRecovery, "recovery"))
			}
			if rs.RetrySec > 0 {
				// Recovery time is the tail of the rank's busy window
				// (compute + waits): every attempt past the first, plus
				// the backoff waits.
				events = append(events, obs.TraceEvent{
					Name: "recovery", Ph: "X",
					Ts:  (kStart + rs.KernelSec + rs.WaitSec - rs.RetrySec) * 1e6,
					Dur: rs.RetrySec * 1e6,
					Pid: pid, Tid: tidRecovery,
					Args: stamp(map[string]any{
						"batch": rs.Batch, "attempts": rs.Attempts,
						"wait_sec": rs.WaitSec,
					}),
				})
			}
			for _, f := range rs.Faults {
				events = append(events, obs.Instant("fault:"+f.Kind, f.AtSec*1e6,
					pid, tidRecovery, stamp(map[string]any{
						"batch": f.Batch, "attempt": f.Attempt, "dpu": f.DPU,
					})))
			}
		}
	}
	if len(r.Escalation) > 0 || r.OutOfBandPairs > 0 || r.ClippedPairs > 0 ||
		r.DegradedScoreOnly > 0 || r.DegradedCPU > 0 || r.VerifyFailures > 0 {
		pid := 1 // above every rank lane, even when no rank produced stats
		for p := range seen {
			if p >= pid {
				pid = p + 1
			}
		}
		events = append(events,
			obs.ProcessName(pid, "integrity (modelled)"),
			obs.ThreadName(pid, tidIntegrity, "escalation"))
		for _, er := range r.Escalation {
			events = append(events, obs.TraceEvent{
				Name: er.Provenance, Ph: "X",
				Ts: er.StartSec * 1e6, Dur: (er.EndSec - er.StartSec) * 1e6,
				Pid: pid, Tid: tidIntegrity,
				Args: stamp(map[string]any{
					"round": er.Round, "band": er.Band, "pairs": er.Pairs,
				}),
			})
		}
		events = append(events, obs.Instant("integrity", r.MakespanSec*1e6,
			pid, tidIntegrity, stamp(map[string]any{
				"out_of_band_pairs":   r.OutOfBandPairs,
				"clipped_pairs":       r.ClippedPairs,
				"escalations":         r.Escalations,
				"escalation_rounds":   r.EscalationRounds,
				"degraded_score_only": r.DegradedScoreOnly,
				"degraded_cpu":        r.DegradedCPU,
				"verify_checked":      r.VerifyChecked,
				"verify_failures":     r.VerifyFailures,
				"cpu_fallback_sec":    r.CPUFallbackSec,
			})))
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Pid != events[j].Pid {
			return events[i].Pid < events[j].Pid
		}
		return events[i].Ts < events[j].Ts
	})
	return events
}
