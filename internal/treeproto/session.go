// Session implementations for the tree protocols. A step is one query
// slot: popping a group (ABS) or serving the queue head (AQS). Both
// sessions keep stepping after the tree drains — ABS probes the empty
// field one slot at a time, AQS replays its retained leaf queries as
// fresh monitoring rounds — so tags admitted later are picked up by the
// continuing traversal.
package treeproto

import (
	"maps"
	"slices"
	"time"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// absSession carries one ABS execution: the explicit depth-first group
// stack plus the session bookkeeping.
type absSession struct {
	p     ABS
	env   *protocol.Env
	m     protocol.Metrics
	clock air.Clock
	stack [][]tagid.ID
	seen  map[tagid.ID]struct{}

	slots, budget int
	err           error
}

var _ protocol.Session = (*absSession)(nil)

// Begin implements protocol.SessionProtocol. The first round of ABS
// begins with all tags answering the initial query (every counter starts
// at zero), which is one big collision that the random splitting then
// resolves.
func (p ABS) Begin(env *protocol.Env) protocol.Session {
	s := &absSession{
		p:      p,
		env:    env,
		m:      protocol.Metrics{Tags: len(env.Tags)},
		seen:   make(map[tagid.ID]struct{}, len(env.Tags)),
		budget: env.SlotBudget(),
	}
	env.Clock = &s.clock
	env.TraceRunStart(p.Name())
	initial := make([]tagid.ID, len(env.Tags))
	copy(initial, env.Tags)
	s.stack = [][]tagid.ID{initial}
	return s
}

// Protocol implements protocol.Session.
func (s *absSession) Protocol() string { return s.p.Name() }

// Step implements protocol.Session: one query slot. With the stack
// drained the reader keeps probing the (empty) field, so an admitted
// group restarts the traversal on the next step.
func (s *absSession) Step() (bool, error) {
	if s.err != nil {
		return false, s.err
	}
	if s.slots >= s.budget {
		s.err = protocol.ErrNoProgress
		return false, s.err
	}
	var group []tagid.ID
	if n := len(s.stack); n > 0 {
		group = s.stack[n-1]
		s.stack = s.stack[:n-1]
	}
	s.slots++
	s.clock.AddSlots(s.env.Timing, 1)

	obs := s.env.Channel.Observe(group)
	switch obs.Kind {
	case channel.Empty:
		s.m.EmptySlots++
	case channel.Singleton:
		s.m.SingletonSlots++
		// A lone report from an already-read tag (a stuck responder keying
		// up out of turn) is not a fresh identification.
		if _, dup := s.seen[obs.ID]; !dup {
			s.m.DirectIDs++
			s.seen[obs.ID] = struct{}{}
			s.env.NotifyIdentified(obs.ID, false)
		}
	case channel.Collision, channel.Captured:
		// Each colliding tag draws a random bit; the zero-subset
		// transmits in the next slot. Tags are exchangeable under the
		// random draw, so splitting by a binomial count is equivalent to
		// per-tag draws. A Captured observation is handled as a plain
		// collision: the splitting protocol has no acknowledgement for an
		// out-of-turn decode, so the captured tag re-contends like the rest.
		s.m.CollisionSlots++
		k := s.env.RNG.Binomial(len(group), 0.5)
		zero, one := group[:k], group[k:]
		s.stack = append(s.stack, one, zero)
	}
	s.m.TagTransmissions += len(group)
	s.env.NotifySlot(protocol.SlotEvent{
		Seq:          s.m.TotalSlots() - 1,
		Kind:         obs.Kind,
		Transmitters: len(group),
		Identified:   s.m.Identified(),
	})
	return len(s.stack) == 0, nil
}

// Admit implements protocol.Session: the tags join the traversal as one
// fresh group, queued below the pending splits so the in-flight
// resolution finishes first (new arrivals reset their counters past the
// current tree in ABS).
func (s *absSession) Admit(ids []tagid.ID) {
	var group []tagid.ID
	for _, id := range ids {
		if _, identified := s.seen[id]; identified {
			continue
		}
		if slices.ContainsFunc(s.stack, func(g []tagid.ID) bool { return slices.Contains(g, id) }) {
			continue
		}
		group = append(group, id)
		s.m.Tags++
	}
	if len(group) > 0 {
		s.stack = append([][]tagid.ID{group}, s.stack...)
	}
}

// Revoke implements protocol.Session: the tags simply stop answering, so
// they are dropped from every pending group. ABS keeps no collision
// records, so nothing else needs invalidating.
func (s *absSession) Revoke(ids []tagid.ID) {
	for _, id := range ids {
		for i, g := range s.stack {
			if k := slices.Index(g, id); k >= 0 {
				s.stack[i] = slices.Delete(g, k, k+1)
				break
			}
		}
	}
}

// Metrics implements protocol.Session.
func (s *absSession) Metrics() protocol.Metrics {
	m := s.m
	m.OnAir = s.clock.Elapsed()
	return m
}

// Elapsed implements protocol.Session.
func (s *absSession) Elapsed() time.Duration { return s.clock.Elapsed() }

// Outstanding implements protocol.Session.
func (s *absSession) Outstanding() int {
	n := 0
	for _, g := range s.stack {
		n += len(g)
	}
	return n
}

// absCheckpoint is a deep copy of an ABS session's state.
type absCheckpoint struct {
	m     protocol.Metrics
	clock air.Clock
	stack [][]tagid.ID
	seen  map[tagid.ID]struct{}

	slots, budget int
	err           error

	rng       rng.Source
	chanState any
}

// Protocol implements protocol.Checkpoint.
func (c *absCheckpoint) Protocol() string { return "ABS" }

func cloneGroups(groups [][]tagid.ID) [][]tagid.ID {
	out := make([][]tagid.ID, len(groups))
	for i, g := range groups {
		if len(g) > 0 {
			out[i] = append([]tagid.ID(nil), g...)
		}
	}
	return out
}

// Snapshot implements protocol.Session.
func (s *absSession) Snapshot() (protocol.Checkpoint, error) {
	cp := &absCheckpoint{
		m:      s.m,
		clock:  s.clock,
		stack:  cloneGroups(s.stack),
		seen:   maps.Clone(s.seen),
		slots:  s.slots,
		budget: s.budget,
		err:    s.err,
		rng:    *s.env.RNG,
	}
	if st, ok := s.env.Channel.(channel.Stateful); ok {
		cp.chanState = st.SnapshotState()
	}
	return cp, nil
}

// Restore implements protocol.Session.
func (s *absSession) Restore(c protocol.Checkpoint) error {
	cp, ok := c.(*absCheckpoint)
	if !ok {
		return protocol.ErrCheckpointMismatch
	}
	s.m = cp.m
	s.clock = cp.clock
	s.stack = cloneGroups(cp.stack)
	s.seen = maps.Clone(cp.seen)
	s.slots = cp.slots
	s.budget = cp.budget
	s.err = cp.err
	*s.env.RNG = cp.rng
	if cp.chanState != nil {
		s.env.Channel.(channel.Stateful).RestoreState(cp.chanState)
	}
	return nil
}

// aqsSession carries one AQS reading process: the current round's query
// queue plus the retained leaves the next round starts from.
type aqsSession struct {
	p     *AQS
	env   *protocol.Env
	m     protocol.Metrics
	clock air.Clock

	queue      []query
	head       int
	nextLeaves []leaf
	// leaves is the retained readable-query set, refreshed each time a
	// round completes.
	leaves []leaf
	// active lists the currently present tags in admission order; rounds
	// after the first re-read only the unidentified ones.
	active []tagid.ID
	seen   map[tagid.ID]struct{}

	slots, budget int
	err           error
}

var _ protocol.Session = (*aqsSession)(nil)

// Begin implements protocol.SessionProtocol: a reading process started
// from the root queries, exactly like Run. The retained reader state (the
// adaptive feature RunRound exposes) is seeded from a.leaves.
func (a *AQS) Begin(env *protocol.Env) protocol.Session {
	return a.begin(env, nil)
}

func (a *AQS) begin(env *protocol.Env, start []leaf) *aqsSession {
	s := &aqsSession{
		p:      a,
		env:    env,
		active: append([]tagid.ID(nil), env.Tags...),
		seen:   make(map[tagid.ID]struct{}, len(env.Tags)),
		budget: env.SlotBudget(),
		leaves: start,
	}
	env.Clock = &s.clock
	env.TraceRunStart(a.Name())
	s.m = protocol.Metrics{Tags: len(env.Tags)}
	s.beginRound(start, env.Tags)
	return s
}

// beginRound builds the round's query queue: the retained leaves if a
// previous round ran, else the root queries 0 and 1.
func (s *aqsSession) beginRound(start []leaf, tags []tagid.ID) {
	s.head = 0
	s.nextLeaves = nil
	if len(start) > 0 {
		s.queue = replayLeaves(start, tags)
		return
	}
	var zero, one []tagid.ID
	for _, id := range tags {
		if id.Bit(0) == 0 {
			zero = append(zero, id)
		} else {
			one = append(one, id)
		}
	}
	s.queue = []query{
		{depth: 1, prefix: withBit(tagid.ID{}, 0, 0), tags: zero},
		{depth: 1, prefix: withBit(tagid.ID{}, 0, 1), tags: one},
	}
}

// unidentified returns the active tags not yet read, in admission order.
func (s *aqsSession) unidentified() []tagid.ID {
	out := make([]tagid.ID, 0, len(s.active))
	for _, id := range s.active {
		if _, ok := s.seen[id]; !ok {
			out = append(out, id)
		}
	}
	return out
}

// Protocol implements protocol.Session.
func (s *aqsSession) Protocol() string { return s.p.Name() }

// Step implements protocol.Session: one query slot, breadth-first from
// the FIFO queue. When the round's queue drains the step reports done and
// the retained leaves are refreshed; the next step replays them over the
// still-unidentified population — AQS's periodic-inventory monitoring —
// so arrivals collide inside their covering leaf and are split out.
func (s *aqsSession) Step() (bool, error) {
	if s.err != nil {
		return false, s.err
	}
	if s.head >= len(s.queue) {
		s.beginRound(s.leaves, s.unidentified())
	}
	if s.slots >= s.budget {
		s.err = protocol.ErrNoProgress
		return false, s.err
	}
	q := s.queue[s.head]
	s.head++
	s.slots++
	s.clock.AddSlots(s.env.Timing, 1)

	obs := s.env.Channel.Observe(q.tags)
	switch obs.Kind {
	case channel.Empty:
		s.m.EmptySlots++
		// Empty queries stay readable and are retained; sibling empties
		// are merged after the round so stale holes do not accumulate.
		s.nextLeaves = append(s.nextLeaves, leaf{depth: q.depth, prefix: q.prefix})
	case channel.Singleton:
		s.m.SingletonSlots++
		// A lone report from an already-read tag (a stuck responder keying
		// up out of turn) is not a fresh identification.
		if _, dup := s.seen[obs.ID]; !dup {
			s.m.DirectIDs++
			s.seen[obs.ID] = struct{}{}
			s.env.NotifyIdentified(obs.ID, false)
		}
		s.nextLeaves = append(s.nextLeaves, leaf{depth: q.depth, prefix: q.prefix, hasTag: true})
	case channel.Collision, channel.Captured:
		// A Captured observation splits like a plain collision: the query
		// tree has no acknowledgement path for an out-of-turn decode, so
		// the captured tag is re-read at a deeper prefix.
		s.m.CollisionSlots++
		if q.depth >= tagid.Bits {
			// Identical 96-bit IDs cannot be split further; with the
			// distinct populations used here this cannot happen.
			s.err = protocol.ErrNoProgress
			return false, s.err
		}
		var zero, one []tagid.ID
		for _, id := range q.tags {
			if id.Bit(q.depth) == 0 {
				zero = append(zero, id)
			} else {
				one = append(one, id)
			}
		}
		s.queue = append(s.queue,
			query{depth: q.depth + 1, prefix: withBit(q.prefix, q.depth, 0), tags: zero},
			query{depth: q.depth + 1, prefix: withBit(q.prefix, q.depth, 1), tags: one})
	}
	s.noteSlot(obs.Kind, len(q.tags))
	if s.head >= len(s.queue) {
		s.leaves = mergeEmptySiblings(s.nextLeaves)
		return true, nil
	}
	return false, nil
}

func (s *aqsSession) noteSlot(kind channel.Kind, transmitters int) {
	s.m.TagTransmissions += transmitters
	s.env.NotifySlot(protocol.SlotEvent{
		Seq:          s.m.TotalSlots() - 1,
		Kind:         kind,
		Transmitters: transmitters,
		Identified:   s.m.Identified(),
	})
}

// Admit implements protocol.Session: arrivals join the population and are
// read in the next round, colliding inside the retained leaf that covers
// their ID — exactly AQS's arrival story.
func (s *aqsSession) Admit(ids []tagid.ID) {
	for _, id := range ids {
		if _, identified := s.seen[id]; identified {
			continue
		}
		if slices.Contains(s.active, id) {
			continue
		}
		s.active = append(s.active, id)
		s.m.Tags++
	}
}

// Revoke implements protocol.Session: departed tags stop answering, so
// they are dropped from the population and from any pending queries of
// the in-flight round. AQS keeps no collision records to invalidate.
func (s *aqsSession) Revoke(ids []tagid.ID) {
	for _, id := range ids {
		i := slices.Index(s.active, id)
		if i < 0 {
			continue
		}
		s.active = slices.Delete(s.active, i, i+1)
		for j := s.head; j < len(s.queue); j++ {
			if k := slices.Index(s.queue[j].tags, id); k >= 0 {
				s.queue[j].tags = slices.Delete(s.queue[j].tags, k, k+1)
				break
			}
		}
	}
}

// Metrics implements protocol.Session.
func (s *aqsSession) Metrics() protocol.Metrics {
	m := s.m
	m.OnAir = s.clock.Elapsed()
	return m
}

// Elapsed implements protocol.Session.
func (s *aqsSession) Elapsed() time.Duration { return s.clock.Elapsed() }

// Outstanding implements protocol.Session.
func (s *aqsSession) Outstanding() int {
	n := 0
	for _, id := range s.active {
		if _, ok := s.seen[id]; !ok {
			n++
		}
	}
	return n
}

// aqsCheckpoint is a deep copy of an AQS session's state.
type aqsCheckpoint struct {
	m     protocol.Metrics
	clock air.Clock

	queue      []query
	head       int
	nextLeaves []leaf
	leaves     []leaf
	active     []tagid.ID
	seen       map[tagid.ID]struct{}

	slots, budget int
	err           error

	rng       rng.Source
	chanState any
}

// Protocol implements protocol.Checkpoint.
func (c *aqsCheckpoint) Protocol() string { return "AQS" }

func cloneQueries(qs []query) []query {
	out := make([]query, len(qs))
	for i, q := range qs {
		out[i] = query{depth: q.depth, prefix: q.prefix}
		if len(q.tags) > 0 {
			out[i].tags = append([]tagid.ID(nil), q.tags...)
		}
	}
	return out
}

// Snapshot implements protocol.Session.
func (s *aqsSession) Snapshot() (protocol.Checkpoint, error) {
	cp := &aqsCheckpoint{
		m:          s.m,
		clock:      s.clock,
		queue:      cloneQueries(s.queue),
		head:       s.head,
		nextLeaves: append([]leaf(nil), s.nextLeaves...),
		leaves:     append([]leaf(nil), s.leaves...),
		active:     append([]tagid.ID(nil), s.active...),
		seen:       maps.Clone(s.seen),
		slots:      s.slots,
		budget:     s.budget,
		err:        s.err,
		rng:        *s.env.RNG,
	}
	if st, ok := s.env.Channel.(channel.Stateful); ok {
		cp.chanState = st.SnapshotState()
	}
	return cp, nil
}

// Restore implements protocol.Session.
func (s *aqsSession) Restore(c protocol.Checkpoint) error {
	cp, ok := c.(*aqsCheckpoint)
	if !ok {
		return protocol.ErrCheckpointMismatch
	}
	s.m = cp.m
	s.clock = cp.clock
	s.queue = cloneQueries(cp.queue)
	s.head = cp.head
	s.nextLeaves = append([]leaf(nil), cp.nextLeaves...)
	s.leaves = append([]leaf(nil), cp.leaves...)
	s.active = append([]tagid.ID(nil), cp.active...)
	s.seen = maps.Clone(cp.seen)
	s.slots = cp.slots
	s.budget = cp.budget
	s.err = cp.err
	*s.env.RNG = cp.rng
	if cp.chanState != nil {
		s.env.Channel.(channel.Stateful).RestoreState(cp.chanState)
	}
	return nil
}
