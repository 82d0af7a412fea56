package main

import (
	"os"
	"sort"
	"time"

	"pimnw/internal/obs"
)

// writeSpans writes the client-side spans of a traced window, and the
// daemon's spans captured over the same window, as one Chrome trace-event
// file (pid 1 = benchmark client, one lane per load goroutine; pid 0 =
// daemon, lanes as /debug/trace numbers them). Each client span carries
// its ID, its parent's and the request's trace ID.
func writeSpans(path string, origin time.Time, spans []span, daemon []obs.TraceEvent) error {
	events := make([]obs.TraceEvent, 0, len(spans)+len(daemon))
	for _, s := range spans {
		events = append(events, obs.TraceEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts:   float64(s.start.Sub(origin)) / float64(time.Microsecond),
			Dur:  float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Args: map[string]any{"id": s.id, "parent": s.parent, "request": s.req},
		})
	}
	events = append(events, daemon...)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSelfTimes sums, per span name, the self time of every complete
// slice: its duration minus the part its direct children cover. Children
// are the slices nested inside it on the same lane (the daemon's tracer
// puts a span on its root ancestor's lane). Times are microseconds.
func spanSelfTimes(events []obs.TraceEvent) map[string]float64 {
	lanes := map[[2]int][]obs.TraceEvent{}
	for _, e := range events {
		if e.Ph == "X" {
			k := [2]int{e.Pid, e.Tid}
			lanes[k] = append(lanes[k], e)
		}
	}
	self := map[string]float64{}
	for _, evs := range lanes {
		// Parents before children: earlier start first, longer first on ties.
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var stack []int // indices of the open ancestors
		for i, e := range evs {
			for len(stack) > 0 {
				top := evs[stack[len(stack)-1]]
				if e.Ts < top.Ts+top.Dur {
					break
				}
				stack = stack[:len(stack)-1]
			}
			self[e.Name] += e.Dur
			if len(stack) > 0 {
				self[evs[stack[len(stack)-1]].Name] -= e.Dur
			}
			stack = append(stack, i)
		}
	}
	return self
}
