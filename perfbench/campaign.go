package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/ancrfid/ancrfid"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/estimate"
	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// campaignSpec is the campaign phase of a workload: FCAT-2 campaigns of
// runs Monte-Carlo runs at population tags, on one worker.
type campaignSpec struct {
	channel string // "abstract" or "signal"
	tags    int
	runs    int // Monte-Carlo runs per round
}

// simConfig is the campaign of round k. The abstract channel is left to
// the runner (NewChannel nil), as a library user would; the signal channel
// is the MSK model with two-signal cancellation.
func (c campaignSpec) simConfig(seed uint64, k int) ancrfid.SimConfig {
	cfg := ancrfid.SimConfig{Tags: c.tags, Runs: c.runs, Seed: roundSeed(seed, k), Workers: 1}
	if c.channel == "signal" {
		cfg.NewChannel = func(r *rng.Source) channel.Channel {
			return channel.NewSignal(channel.SignalConfig{MaxCancel: 2}, r)
		}
	}
	return cfg
}

// roundSeed derives the campaign seed of round k from the benchmark seed.
func roundSeed(seed uint64, k int) uint64 {
	return rng.New(seed ^ uint64(k+1)*0x9e3779b97f4a7c15).Uint64()
}

// campaignRound is the outcome of one sim.Run call.
type campaignRound struct {
	runs    []ancrfid.Metrics
	elapsed time.Duration
	allocMB float64
}

// runCampaign runs round k of the campaign and checks every run's
// accounting. A failed campaign counts all its runs as failed.
func runCampaign(c campaignSpec, k int, cfg ancrfid.SimConfig, t *tally) campaignRound {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	res, err := ancrfid.Run(ancrfid.NewFCAT(2), cfg)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	out := campaignRound{runs: res.Runs, elapsed: elapsed, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)}
	if err != nil {
		t.fail(int64(c.runs), "campaign round %d: %v", k, err)
		return out
	}
	for i, m := range res.Runs {
		t.check(m.Tags == c.tags && m.DirectIDs+m.ResolvedIDs == m.Tags,
			"campaign round %d run %d: %d direct + %d resolved != %d tags", k, i, m.DirectIDs, m.ResolvedIDs, m.Tags)
	}
	return out
}

func (r campaignRound) identified() int {
	n := 0
	for _, m := range r.runs {
		n += m.Identified()
	}
	return n
}

// ---- traced campaign: channel wrapper and counting tracer ----

// campaignCounts are the per-layer counts of the traced campaign rounds.
type campaignCounts struct {
	observe, collisions     int64
	subtract, decode, decOK int64
	created, resolved       int64
	cascade                 int64
	estimates               int64
	slots, tx, tags         int64
}

// explicitChannel sets a nil NewChannel to the runner's default, the
// abstract channel with λ = 2. The runner reuses one channel across runs
// only when NewChannel is nil, so a traced round, which must wrap the
// factory, is compared with an untraced round that sets it too: the two
// then differ by tracing alone.
func explicitChannel(cfg ancrfid.SimConfig) ancrfid.SimConfig {
	if cfg.NewChannel == nil {
		cfg.NewChannel = func(r *rng.Source) channel.Channel {
			return channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r)
		}
	}
	return cfg
}

// tracedConfig wraps cfg's channel and installs the counting tracer.
func tracedConfig(cfg ancrfid.SimConfig, rec *recorder, n *campaignCounts, t *tally) ancrfid.SimConfig {
	inner := explicitChannel(cfg).NewChannel
	cfg.NewChannel = func(r *rng.Source) channel.Channel {
		return &timedChannel{inner: inner(r), rec: rec, n: n}
	}
	cfg.Tracer = &countingTracer{lib: obs.NewMetricsTracer(obs.NewRegistry()), rec: rec, n: n, t: t}
	return cfg
}

// timedChannel times Observe and wraps every recording so Subtract and
// Decode are timed too.
type timedChannel struct {
	inner channel.Channel
	rec   *recorder
	n     *campaignCounts
}

func (c *timedChannel) Observe(tx []tagid.ID) channel.Observation {
	c.rec.open(layerObserve)
	o := c.inner.Observe(tx)
	c.rec.close()
	c.n.observe++
	if o.Kind == channel.Collision || o.Kind == channel.Captured {
		c.n.collisions++
	}
	if o.Mix != nil {
		o.Mix = &timedMixed{Mixed: o.Mix, rec: c.rec, n: c.n}
	}
	return o
}

type timedMixed struct {
	channel.Mixed
	rec *recorder
	n   *campaignCounts
}

func (m *timedMixed) Subtract(id tagid.ID) {
	m.rec.open(layerMix)
	m.Mixed.Subtract(id)
	m.rec.close()
	m.n.subtract++
}

func (m *timedMixed) Decode() (tagid.ID, bool) {
	m.rec.open(layerMix)
	id, ok := m.Mixed.Decode()
	m.rec.close()
	m.n.decode++
	if ok {
		m.n.decOK++
	}
	return id, ok
}

// countingTracer counts events at the protocol/observability boundary,
// replays estimate.Exact on every frame inversion, opens a span per run,
// and forwards every event to a library tracer inside an obs.emit span.
type countingTracer struct {
	lib obs.Tracer
	rec *recorder
	n   *campaignCounts
	t   *tally

	identified int
	frame      struct {
		open            bool
		size            int
		p               float64
		nc, n0          int
		identifiedStart int
	}
}

func (c *countingTracer) RunStart(ev obs.RunStartEvent) {
	c.rec.newTrace()
	c.rec.open(layerRun)
	c.identified = 0
	c.frame.open = false
	c.n.tags += int64(ev.Tags)
	c.rec.open(layerEmit)
	c.lib.RunStart(ev)
	c.rec.close()
}

func (c *countingTracer) RunEnd(ev obs.RunEndEvent) {
	c.rec.open(layerEmit)
	c.lib.RunEnd(ev)
	c.rec.close()
	c.rec.close() // the run span
}

func (c *countingTracer) FrameStart(ev obs.FrameEvent) {
	c.frame.open = true
	c.frame.size, c.frame.p = ev.Size, ev.P
	c.frame.nc, c.frame.n0 = 0, 0
	c.frame.identifiedStart = c.identified
	c.rec.open(layerEmit)
	c.lib.FrameStart(ev)
	c.rec.close()
}

func (c *countingTracer) Advertisement(ev obs.AdvertEvent) {
	c.rec.open(layerEmit)
	c.lib.Advertisement(ev)
	c.rec.close()
}

func (c *countingTracer) SlotDone(ev obs.SlotEvent) {
	c.n.slots++
	c.n.tx += int64(ev.Transmitters)
	switch ev.Kind {
	case channel.Empty:
		c.frame.n0++
	case channel.Collision, channel.Captured:
		c.frame.nc++
	}
	c.rec.open(layerEmit)
	c.lib.SlotDone(ev)
	c.rec.close()
}

func (c *countingTracer) TagIdentified(ev obs.IdentifyEvent) {
	c.identified++
	c.rec.open(layerEmit)
	c.lib.TagIdentified(ev)
	c.rec.close()
}

func (c *countingTracer) AckSent(ev obs.AckEvent) {
	c.rec.open(layerEmit)
	c.lib.AckSent(ev)
	c.rec.close()
}

func (c *countingTracer) RecordCreated(ev obs.RecordEvent) {
	c.n.created++
	c.rec.open(layerEmit)
	c.lib.RecordCreated(ev)
	c.rec.close()
}

func (c *countingTracer) CascadeStep(ev obs.CascadeEvent) {
	c.n.cascade++
	c.rec.open(layerEmit)
	c.lib.CascadeStep(ev)
	c.rec.close()
}

func (c *countingTracer) RecordResolved(ev obs.ResolveEvent) {
	c.n.resolved++
	c.rec.open(layerEmit)
	c.lib.RecordResolved(ev)
	c.rec.close()
}

// EstimatorUpdate checks a frame inversion against an independent replay:
// FCAT inverts Eq. 12 with estimate.Exact on the frame's collision count,
// or, for a collision-free frame, its singleton expectation n1/(f·p), and
// adds the tags identified before the frame began.
func (c *countingTracer) EstimatorUpdate(ev obs.EstimateEvent) {
	if ev.FrameEst != 0 && c.frame.open {
		f := c.frame.size
		var est float64
		ok := true
		if c.frame.nc == 0 {
			est = float64(f-c.frame.n0) / (float64(f) * c.frame.p)
		} else {
			c.rec.open(layerEstimate)
			est, ok = estimate.Exact(c.frame.nc, f, c.frame.p)
			c.rec.close()
			c.n.estimates++
		}
		want := est + float64(c.frame.identifiedStart)
		c.t.check(ok && want == ev.FrameEst, "frame %d estimate: replay %v (ok %v), FCAT reported %v", ev.Frame, want, ok, ev.FrameEst)
	}
	c.rec.open(layerEmit)
	c.lib.EstimatorUpdate(ev)
	c.rec.close()
}

func (c *countingTracer) TagArrival(ev obs.ArrivalEvent) {
	c.rec.open(layerEmit)
	c.lib.TagArrival(ev)
	c.rec.close()
}

func (c *countingTracer) TagDeparture(ev obs.DepartureEvent) {
	c.rec.open(layerEmit)
	c.lib.TagDeparture(ev)
	c.rec.close()
}

func (c *countingTracer) SessionCheckpoint(ev obs.CheckpointEvent) {
	c.rec.open(layerEmit)
	c.lib.SessionCheckpoint(ev)
	c.rec.close()
}

func (c *countingTracer) FaultInjected(ev obs.FaultEvent) {
	c.rec.open(layerEmit)
	c.lib.FaultInjected(ev)
	c.rec.close()
}

func (c *countingTracer) RecordQuarantined(ev obs.QuarantineEvent) {
	c.rec.open(layerEmit)
	c.lib.RecordQuarantined(ev)
	c.rec.close()
}

func (c *countingTracer) ReaderRestart(ev obs.RestartEvent) {
	c.rec.open(layerEmit)
	c.lib.ReaderRestart(ev)
	c.rec.close()
}

func (c *countingTracer) FleetActivity(ev obs.FleetEvent) {
	c.rec.open(layerEmit)
	c.lib.FleetActivity(ev)
	c.rec.close()
}

// sameRuns checks that a traced round reproduced the untraced round's
// per-run metrics exactly.
func sameRuns(k int, untraced, traced []ancrfid.Metrics, t *tally) {
	if len(untraced) != len(traced) {
		t.fail(1, "campaign round %d: traced run made %d runs, untraced %d", k, len(traced), len(untraced))
		return
	}
	for i := range untraced {
		t.check(untraced[i] == traced[i], "campaign round %d run %d: traced metrics %+v != untraced %+v", k, i, traced[i], untraced[i])
	}
}

// paperTableI is FCAT-2's reading throughput at N = 20000 in the paper's
// Table I, and as EXPERIMENTS.md reproduces it with 100 runs.
const (
	paperTableI      = 199.1
	experimentsTable = 198.5
)

func tableILine(v float64) string {
	return fmt.Sprintf("read_tags_per_s %.2f tags/s vs paper Table I %.1f (%+.2f%%) and EXPERIMENTS.md %.1f (%+.2f%%)",
		v, paperTableI, 100*(v-paperTableI)/paperTableI, experimentsTable, 100*(v-experimentsTable)/experimentsTable)
}
