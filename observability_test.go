package ancrfid_test

import (
	"fmt"
	"testing"

	"github.com/ancrfid/ancrfid"
)

// TestTraceResolutionChains is the observability acceptance test: a traced
// FCAT run over 1000 tags must emit a complete event stream in which every
// tag counted in Metrics.ResolvedIDs is traceable through collision-record
// events — each resolve either decodes at store time (depth 0, no trigger)
// or is triggered by an ID the reader had already learned (a direct read or
// an earlier resolve), chaining every recovery back to a singleton slot.
func TestTraceResolutionChains(t *testing.T) {
	var (
		direct    = make(map[ancrfid.TagID]bool)
		resolved  = make(map[ancrfid.TagID]bool)
		chained   = make(map[ancrfid.TagID]bool) // resolve events seen, dup or not
		badChains int
	)
	tr := &ancrfid.TracerHooks{
		OnTagIdentified: func(ev ancrfid.TraceIdentifyEvent) {
			if ev.ViaResolution {
				resolved[ev.ID] = true
			} else {
				direct[ev.ID] = true
			}
		},
		OnRecordResolved: func(ev ancrfid.TraceResolveEvent) {
			if ev.Depth > 0 {
				// Triggered resolve: the trigger must already be known.
				if !direct[ev.Trigger] && !resolved[ev.Trigger] && !chained[ev.Trigger] {
					badChains++
				}
			}
			chained[ev.ID] = true
		},
	}

	cfg := ancrfid.SimConfig{Tags: 1000, Runs: 1, Seed: 42, Tracer: tr}
	m, err := ancrfid.RunOnce(ancrfid.NewFCAT(2), cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Identified() != 1000 {
		t.Fatalf("identified %d of 1000 tags", m.Identified())
	}
	if m.ResolvedIDs == 0 {
		t.Fatal("run resolved no tags; the traceability check is vacuous")
	}
	if len(direct) != m.DirectIDs {
		t.Fatalf("%d direct identify events, Metrics.DirectIDs = %d", len(direct), m.DirectIDs)
	}
	if len(resolved) != m.ResolvedIDs {
		t.Fatalf("%d resolved identify events, Metrics.ResolvedIDs = %d", len(resolved), m.ResolvedIDs)
	}
	if badChains != 0 {
		t.Fatalf("%d resolve events had an unknown trigger", badChains)
	}
	for id := range resolved {
		if !chained[id] {
			t.Fatalf("tag %s counted as resolved but no resolve event recovered it", id)
		}
	}
}

// TestRegistryMatchesMetrics cross-checks the aggregated registry against
// protocol.Metrics for the same runs: the two accounting paths (atomic
// counters fed by the event stream versus the protocol's own tallies) must
// agree exactly.
func TestRegistryMatchesMetrics(t *testing.T) {
	for _, name := range []string{"FCAT-2", "SCAT-2", "DFSA", "EDFSA", "CRDSA", "ABS", "AQS"} {
		t.Run(name, func(t *testing.T) {
			p, err := ancrfid.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			reg := ancrfid.NewRegistry()
			res, err := ancrfid.Run(p, ancrfid.SimConfig{
				Tags: 400, Runs: 3, Seed: 9, Metrics: reg, PAckLoss: 0.1,
			})
			if err != nil {
				t.Fatal(err)
			}
			var want ancrfid.Metrics
			for _, m := range res.Runs {
				want.EmptySlots += m.EmptySlots
				want.SingletonSlots += m.SingletonSlots
				want.CollisionSlots += m.CollisionSlots
				want.DirectIDs += m.DirectIDs
				want.ResolvedIDs += m.ResolvedIDs
				want.Frames += m.Frames
				want.TagTransmissions += m.TagTransmissions
			}
			checks := []struct {
				key  string
				want int64
			}{
				{"runs.started", 3},
				{"runs.completed", 3},
				{"runs.failed", 0},
				{"slots.empty", int64(want.EmptySlots)},
				{"slots.singleton", int64(want.SingletonSlots)},
				{"slots.collision", int64(want.CollisionSlots)},
				{"ids.direct", int64(want.DirectIDs)},
				{"ids.resolved", int64(want.ResolvedIDs)},
				{"frames", int64(want.Frames)},
				{"tx.total", int64(want.TagTransmissions)},
			}
			for _, c := range checks {
				if got := reg.Value(c.key); got != c.want {
					t.Errorf("registry %s = %d, Metrics say %d", c.key, got, c.want)
				}
			}
		})
	}
}

// TestTraceSlotAttribution checks that every protocol attributes its trace
// events to run-wide slot numbers. A record and a direct acknowledgement
// must name the slot whose step emits them, which is the seq of the slot
// event closing that step. A resolved acknowledgement may name an earlier
// slot (the record it decoded), but never one before the current frame.
func TestTraceSlotAttribution(t *testing.T) {
	for _, name := range allProtocols {
		t.Run(name, func(t *testing.T) {
			p, err := ancrfid.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			type claim struct {
				what string
				seq  int
			}
			var (
				step                []claim
				frameStart, checked int
				bad                 []string
			)
			tr := &ancrfid.TracerHooks{
				OnFrameStart: func(ev ancrfid.TraceFrameEvent) { frameStart = ev.Seq },
				OnAckSent: func(ev ancrfid.TraceAckEvent) {
					if ev.Kind == ancrfid.AckDirect {
						step = append(step, claim{"direct ack", ev.Seq})
						return
					}
					checked++
					if ev.Seq < frameStart {
						bad = append(bad, fmt.Sprintf("%v ack names slot %d, before its frame's first slot %d",
							ev.Kind, ev.Seq, frameStart))
					}
				},
				OnRecordCreated: func(ev ancrfid.TraceRecordEvent) {
					step = append(step, claim{"record", int(ev.Slot)})
				},
				OnSlotDone: func(ev ancrfid.TraceSlotEvent) {
					for _, c := range step {
						checked++
						if c.seq != ev.Seq {
							bad = append(bad, fmt.Sprintf("%s names slot %d in the step of slot %d", c.what, c.seq, ev.Seq))
						}
					}
					step = step[:0]
				},
			}
			cfg := ancrfid.SimConfig{Tags: 200, Runs: 1, Seed: 3, PAckLoss: 0.05, Tracer: tr}
			if _, err := ancrfid.RunOnce(p, cfg, 0); err != nil {
				t.Fatal(err)
			}
			if len(bad) > 0 {
				t.Fatalf("%d of %d attributions are wrong; first: %s", len(bad), checked, bad[0])
			}
		})
	}
}
