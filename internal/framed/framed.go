// Package framed is the session engine of the framed-ALOHA protocols:
// DFSA, EDFSA, MDFSA and PRALOHA run entirely on it, and CRDSA drives its
// own replica-and-cancellation slot loop over its roster and checkpoint.
//
// The engine owns what those protocols share: opening a frame (slot-budget
// check, announcement, trace event, bucketing into reused buckets),
// observing one slot (the Empty/Singleton/Collision/Captured dispatch with
// its direct and resolved-index acknowledgements), closing a frame (the
// read tags leave the backlog), the tag roster (Admit, Revoke, Metrics,
// Elapsed, Outstanding) and Snapshot/Restore. A Policy supplies only what
// differs between protocols: the frame size, which tags take part, how
// they pick their slots, and the rule applied when a frame ends. The
// engine calls the policy once per frame, never per slot or per tag.
package framed

import (
	"maps"
	"slices"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/record"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// Frame is a policy's plan for the next frame.
type Frame struct {
	// Size is the number of report slots.
	Size int
	// P is the report probability the frame announces (the share of the
	// backlog taking part); it appears only in the trace.
	P float64
	// Tags are the tags that take part, each in one slot.
	Tags []tagid.ID
	// Hashed makes every tag replay the slot H(tag, frame number) instead
	// of drawing its slot from the run's RNG stream.
	Hashed bool
}

// Stats is the tally of a frame that has just ended.
type Stats struct {
	// Len is the frame size; Collisions counts its collision and captured
	// slots and Transmissions its tag transmissions.
	Len, Collisions, Transmissions int
	// Identified counts the session's identifications so far and
	// IdentifiedBefore those at the frame's start.
	Identified, IdentifiedBefore int
}

// Policy is what a framed protocol supplies to the engine.
type Policy interface {
	// Open plans the next frame. It runs before the slot-budget check.
	Open(e *Engine) Frame
	// Close applies the frame-end rule once the frame's read tags have
	// left the backlog, and reports whether the inventory is done.
	Close(e *Engine, f Stats) (done bool)
}

// Clamp bounds a frame size to at least one slot and, when maxFrame is
// positive, to at most maxFrame slots.
func Clamp(size, maxFrame int) int {
	size = max(size, 1)
	if maxFrame > 0 {
		size = min(size, maxFrame)
	}
	return size
}

// counters are the plain-value part of a session's state.
type counters struct {
	m             protocol.Metrics
	clock         air.Clock
	slots, budget int

	// Current-frame tally, meaningful while inFrame.
	inFrame                   bool
	frameLen, slotJ           int
	collisions, transmissions int
	identifiedBefore          int

	err error
}

// core is the state a checkpoint keeps: the counters plus the collections
// Snapshot and Restore deep-copy.
type core struct {
	counters
	// Unread is the backlog: admitted tags the reader has not confirmed.
	Unread []tagid.ID
	// Seen holds every tag identified so far.
	Seen map[tagid.ID]struct{}
	// Store, when non-nil, keeps the collision records that identify tags
	// by cascade.
	Store *record.Store

	// In-frame state, meaningful while inFrame: the slot buckets, the
	// tags whose acknowledgement landed (Read), and direct reads whose
	// cancellation waits for the frame's end (Pending, CRDSA only).
	occ     [][]tagid.ID
	Read    map[tagid.ID]struct{}
	Pending []tagid.ID
}

// clone deep-copies the state.
func (c *core) clone() (core, error) {
	out := *c
	out.Unread = slices.Clone(c.Unread)
	out.Seen = maps.Clone(c.Seen)
	if c.Store != nil {
		store, err := c.Store.Clone()
		if err != nil {
			return core{}, err
		}
		out.Store = store
	}
	out.occ, out.Read, out.Pending = nil, nil, nil
	if c.inFrame {
		out.occ = make([][]tagid.ID, len(c.occ))
		for i, b := range c.occ {
			out.occ[i] = slices.Clone(b)
		}
		out.Read = maps.Clone(c.Read)
		out.Pending = slices.Clone(c.Pending)
	}
	return out, nil
}

// Engine is the protocol-independent part of a framed session.
type Engine struct {
	name string
	env  *protocol.Env
	core

	// Scratch reused across frames and never checkpointed: the slot
	// buckets, the read set, and Members, a buffer a policy may build a
	// frame's Tags in.
	buckets [][]tagid.ID
	readSet map[tagid.ID]struct{}
	Members []tagid.ID
}

// Session is a framed session: the engine plus S, the protocol's own
// state. S holds plain values only, so a checkpoint copies it whole.
type Session[S any] struct {
	Engine
	State S
	pol   Policy
}

// sessionScratch is the reusable core of a session (see protocol.Scratch).
type sessionScratch struct {
	seen  map[tagid.ID]struct{}
	store *record.Store
}

// New opens a session of the named protocol over env and emits the
// run-start trace event. When *S implements Policy, Step runs the engine's
// frame loop over it; otherwise the protocol supplies its own Step. A
// positive dropAbove gives the session a persistent record store that
// discards records of more than dropAbove members.
func New[S any](env *protocol.Env, name string, st S, dropAbove int) *Session[S] {
	s := &Session[S]{State: st}
	s.pol, _ = any(&s.State).(Policy)
	e := &s.Engine
	e.name, e.env = name, env
	e.m = protocol.Metrics{Tags: len(env.Tags)}
	e.budget = env.SlotBudget()
	e.Unread = slices.Clone(env.Tags)
	sc, _ := env.Scratch.Get(name).(*sessionScratch)
	if sc == nil {
		sc = &sessionScratch{seen: make(map[tagid.ID]struct{}, len(env.Tags))}
		env.Scratch.Put(name, sc)
	} else {
		clear(sc.seen)
	}
	e.Seen = sc.seen
	if dropAbove > 0 {
		if sc.store == nil {
			sc.store = record.NewStore()
		} else {
			sc.store.Reset()
		}
		e.Store = sc.store
		e.Store.Tracer = env.Tracer
		e.Store.Quarantine = env.Hardened()
		e.Store.DropAbove = dropAbove
		if env.Stream {
			if rel, ok := env.Channel.(channel.Releaser); ok {
				e.Store.SetReleaser(rel)
			}
		}
	}
	env.Clock = &e.clock
	env.TraceRunStart(name)
	return s
}

// Step implements protocol.Session: one report slot, with the frame's
// opening folded into its first slot's step and its closing into its last.
// A done session keeps stepping, so newly admitted tags are observed from
// the next frame on.
func (s *Session[S]) Step() (bool, error) {
	e := &s.Engine
	if e.err != nil {
		return false, e.err
	}
	if !e.inFrame {
		fr := s.pol.Open(e)
		occ, err := e.OpenFrame(fr.Size, fr.P)
		if err != nil {
			return false, err
		}
		if fr.Hashed {
			frame := uint64(e.m.Frames)
			for _, id := range fr.Tags {
				j := id.HashPrefix().FrameSlot(frame, fr.Size)
				occ[j] = append(occ[j], id)
			}
		} else {
			for _, id := range fr.Tags {
				j := e.env.RNG.Intn(fr.Size)
				occ[j] = append(occ[j], id)
			}
		}
	}

	obs, tx, slot := e.Observe()
	switch obs.Kind {
	case channel.Singleton:
		e.Direct(obs.ID)
		if e.Store != nil {
			e.resolve(e.Store.OnIdentified(obs.ID))
		}
	case channel.Collision:
		// With a store the mixed recording is kept: it resolves by cascade
		// once enough constituents are known. Without one the slot is
		// waste; a corrupted singleton also lands here and retries next
		// frame.
		if e.Store != nil {
			e.resolve(e.Store.Add(slot, obs.Mix, tx))
		}
	case channel.Captured:
		// The slot collided but its strongest constituent decoded through.
		// It is acknowledged like a singleton; the residual recording joins
		// the store with the captured tag already known.
		e.Direct(obs.ID)
		if e.Store != nil {
			e.resolve(e.Store.OnIdentified(obs.ID))
			e.resolve(e.Store.Add(slot, obs.Mix, tx))
		}
	}
	if !e.EndSlot(obs.Kind, len(tx)) {
		return false, nil
	}
	e.FilterRead()
	return s.pol.Close(e, Stats{
		Len: e.frameLen, Collisions: e.collisions, Transmissions: e.transmissions,
		Identified: e.m.Identified(), IdentifiedBefore: e.identifiedBefore,
	}), nil
}

// Err returns the error that ended the session, if any.
func (e *Engine) Err() error { return e.err }

// InFrame reports whether a frame is under way.
func (e *Engine) InFrame() bool { return e.inFrame }

// Env returns the environment the session runs over.
func (e *Engine) Env() *protocol.Env { return e.env }

// OpenFrame starts a frame of size slots announcing report probability p,
// and returns its emptied slot buckets for the caller to fill. It fails
// with protocol.ErrNoProgress, which also ends the session, once the slot
// budget is spent.
func (e *Engine) OpenFrame(size int, p float64) ([][]tagid.ID, error) {
	if e.slots >= e.budget {
		e.err = protocol.ErrNoProgress
		return nil, e.err
	}
	e.clock.Add(e.env.Timing.FrameAnnouncement())
	e.m.Frames++
	e.env.TraceFrame(obsev.FrameEvent{Seq: e.slots, Frame: e.m.Frames, Size: size, P: p})
	if n := cap(e.buckets); n < size {
		// Grow in one step; the buckets already there keep their capacity.
		e.buckets = append(e.buckets[:n], make([][]tagid.ID, size-n)...)
	}
	e.occ = e.buckets[:size]
	for i := range e.occ {
		e.occ[i] = e.occ[i][:0]
	}
	if e.readSet == nil {
		e.readSet = make(map[tagid.ID]struct{})
	} else {
		clear(e.readSet)
	}
	e.Read = e.readSet
	e.Pending = e.Pending[:0]
	e.frameLen = size
	e.slotJ, e.collisions, e.transmissions = 0, 0, 0
	e.identifiedBefore = e.m.Identified()
	e.inFrame = true
	return e.occ, nil
}

// Observe runs the frame's current slot on the channel and tallies its
// kind. It returns the observation, the slot's transmitters and its
// run-wide index.
func (e *Engine) Observe() (channel.Observation, []tagid.ID, uint64) {
	tx := e.occ[e.slotJ]
	e.transmissions += len(tx)
	slot := uint64(e.m.TotalSlots())
	obs := e.env.Channel.Observe(tx)
	switch obs.Kind {
	case channel.Empty:
		e.m.EmptySlots++
	case channel.Singleton:
		e.m.SingletonSlots++
	case channel.Collision, channel.Captured:
		// A captured slot occupied the air as a collision, and the
		// backlog estimators count it as one.
		e.m.CollisionSlots++
		e.collisions++
	}
	return obs, tx, slot
}

// Identify counts id's first identification and reports whether it was
// new; resolved marks an identification recovered from collision records.
func (e *Engine) Identify(id tagid.ID, resolved bool) bool {
	// One map operation: inserting a tag already seen leaves the size.
	n := len(e.Seen)
	if e.Seen[id] = struct{}{}; len(e.Seen) == n {
		return false
	}
	if resolved {
		e.m.ResolvedIDs++
	} else {
		e.m.DirectIDs++
	}
	e.env.NotifyIdentified(id, resolved)
	return true
}

// Ack acknowledges id, attributing the acknowledgement to slot seq; the
// tag joins the frame's read set only if the acknowledgement lands.
func (e *Engine) Ack(seq int, id tagid.ID, kind obsev.AckKind) {
	delivered := e.env.AckDelivered()
	e.env.TraceAck(obsev.AckEvent{Seq: seq, ID: id, Kind: kind, Delivered: delivered})
	if delivered {
		e.Read[id] = struct{}{}
	}
}

// Direct counts a tag read from the current singleton or captured slot
// and acknowledges it. It reports whether the read was the tag's first
// identification.
func (e *Engine) Direct(id tagid.ID) bool {
	first := e.Identify(id, false)
	e.Ack(e.m.TotalSlots()-1, id, obsev.AckDirect)
	return first
}

// resolve counts the tags a record cascade recovered, acknowledging each
// FCAT-style by broadcasting the resolved slot's index.
func (e *Engine) resolve(res []record.Resolved) {
	for _, r := range res {
		e.Identify(r.ID, true)
		e.clock.Add(e.env.Timing.ResolvedIndexAck())
		e.Ack(e.m.TotalSlots()-1, r.ID, obsev.AckResolvedIndex)
	}
}

// EndSlot closes the current slot: it tallies the slot's transmitters,
// notifies the slot and advances the clock. It reports whether the slot
// ended the frame.
func (e *Engine) EndSlot(kind channel.Kind, transmitters int) bool {
	e.m.TagTransmissions += transmitters
	e.env.NotifySlot(protocol.SlotEvent{
		Seq:          e.m.TotalSlots() - 1,
		Kind:         kind,
		Transmitters: transmitters,
		Identified:   e.m.Identified(),
	})
	e.slotJ++
	e.slots++
	e.clock.Add(e.env.Timing.Slot())
	if e.slotJ < e.frameLen {
		return false
	}
	e.inFrame = false
	return true
}

// FilterRead silences the tags read this frame: they leave the backlog.
func (e *Engine) FilterRead() {
	if len(e.Read) == 0 {
		return
	}
	remaining := e.Unread[:0]
	for _, id := range e.Unread {
		if _, ok := e.Read[id]; !ok {
			remaining = append(remaining, id)
		}
	}
	e.Unread = remaining
}

// TraceEstimate emits the frame-end backlog estimate.
func (e *Engine) TraceEstimate(estimate, frameEst float64) {
	e.env.TraceEstimate(obsev.EstimateEvent{
		Frame: e.m.Frames, Estimate: estimate, FrameEst: frameEst, Identified: e.m.Identified(),
	})
}

// Protocol implements protocol.Session.
func (e *Engine) Protocol() string { return e.name }

// Admit implements protocol.Session: the tags join the backlog and first
// transmit in the next frame.
func (e *Engine) Admit(ids []tagid.ID) {
	for _, id := range ids {
		if _, identified := e.Seen[id]; identified || slices.Contains(e.Unread, id) {
			continue
		}
		e.Unread = append(e.Unread, id)
		e.m.Tags++
		if e.Store != nil {
			e.Store.Readmit(id)
		}
	}
}

// Revoke implements protocol.Session: the tags leave the backlog and stop
// transmitting immediately — they are stripped from the current frame's
// remaining slot buckets — and their pending record memberships are voided
// so stale cascades cannot identify a departed tag.
func (e *Engine) Revoke(ids []tagid.ID) {
	for _, id := range ids {
		if _, identified := e.Seen[id]; !identified && e.Store != nil {
			e.Store.Revoke(id)
		}
		i := slices.Index(e.Unread, id)
		if i < 0 {
			continue
		}
		e.Unread = slices.Delete(e.Unread, i, i+1)
		if !e.inFrame {
			continue
		}
		for j := e.slotJ; j < e.frameLen; j++ {
			if k := slices.Index(e.occ[j], id); k >= 0 {
				e.occ[j] = slices.Delete(e.occ[j], k, k+1)
			}
		}
	}
}

// Metrics implements protocol.Session.
func (e *Engine) Metrics() protocol.Metrics {
	m := e.m
	m.OnAir = e.clock.Elapsed()
	return m
}

// Elapsed implements protocol.Session.
func (e *Engine) Elapsed() time.Duration { return e.clock.Elapsed() }

// Outstanding implements protocol.Session.
func (e *Engine) Outstanding() int { return len(e.Unread) }

// checkpoint is a deep copy of a session's state.
type checkpoint[S any] struct {
	name      string
	core      core
	state     S
	rng       rng.Source
	chanState any
}

// Protocol implements protocol.Checkpoint.
func (c *checkpoint[S]) Protocol() string { return c.name }

// Snapshot implements protocol.Session.
func (s *Session[S]) Snapshot() (protocol.Checkpoint, error) {
	c, err := s.core.clone()
	if err != nil {
		return nil, err
	}
	cp := &checkpoint[S]{name: s.name, core: c, state: s.State, rng: *s.env.RNG}
	if st, ok := s.env.Channel.(channel.Stateful); ok {
		cp.chanState = st.SnapshotState()
	}
	return cp, nil
}

// Restore implements protocol.Session.
func (s *Session[S]) Restore(c protocol.Checkpoint) error {
	cp, ok := c.(*checkpoint[S])
	if !ok || cp.name != s.name {
		return protocol.ErrCheckpointMismatch
	}
	restored, err := cp.core.clone()
	if err != nil {
		return err
	}
	s.core = restored
	s.State = cp.state
	*s.env.RNG = cp.rng
	if cp.chanState != nil {
		s.env.Channel.(channel.Stateful).RestoreState(cp.chanState)
	}
	return nil
}
