// Package crdsa implements Contention Resolution Diversity Slotted ALOHA
// (Casini, De Gaudenzi & Herrero, IEEE Trans. Wireless Comm. 2007 — the
// paper's reference [22], discussed in Section III-C as the prior use of
// collision resolution in satellite access networks).
//
// Each unread tag transmits its ID twice, in two distinct randomly chosen
// slots of a frame; the replica carries a pointer to its twin's slot. The
// reader decodes singleton slots directly and then iterates interference
// cancellation: every decoded tag's replica is subtracted from its twin
// slot, which may strip a collision down to a decodable residual, whose
// tag is cancelled in turn, and so on until no slot changes.
//
// The paper contrasts CRDSA with its own design: CRDSA predicts throughput
// for a known offered load, whereas FCAT adapts the report probability to
// an embedded population estimate. Including CRDSA here lets the
// evaluation compare the two collision-resolution philosophies under the
// same channel model; the channel's ANC capability (lambda) bounds how
// deep a collision the cancellation can strip, so emulating classic CRDSA
// (full packet re-encoding) requires a channel with a large lambda.
package crdsa

import (
	"math"

	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/framed"
	obsev "github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/record"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// OptimalLoad is the offered load G = N/L at which CRDSA's throughput
// peaks (~0.55 packets/slot at G ~ 0.65 for two replicas; Casini et al.,
// Fig. 9).
const OptimalLoad = 0.65

// Config parameterises CRDSA.
type Config struct {
	// Replicas is the number of copies each tag transmits per frame
	// (default 2, the classic scheme).
	Replicas int
	// InitialBacklog seeds the frame sizing; zero grants the perfect
	// initial estimate (population size), matching the other baselines.
	InitialBacklog int
}

// Protocol is a configured CRDSA instance.
type Protocol struct {
	cfg Config
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns a CRDSA instance.
func New(cfg Config) *Protocol {
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	return &Protocol{cfg: cfg}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "CRDSA" }

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	backlog := p.cfg.InitialBacklog
	if backlog <= 0 {
		backlog = len(env.Tags)
	}
	st := state{backlog: backlog, growth: 1}
	return &session{Session: framed.New(env, p.Name(), st, 0), replicas: p.cfg.Replicas}
}

// state is CRDSA's own part of a session's state.
type state struct {
	backlog int
	// growth dilutes the frame after a fruitless one: with few tags and
	// several replicas a matched frame can deadlock deterministically
	// (e.g. two tags with three replicas in three slots collide in every
	// slot forever), so a no-progress frame doubles the next frame's size
	// until reads resume.
	growth int
	// placed counts the tags that placed replicas in the current frame.
	placed int
}

// session carries one CRDSA execution over the framed engine's roster and
// checkpoint. A step is one report slot; the frame boundaries (replica
// placement at the front, the iterative cancellation pass, unread filter
// and backlog update at the back) fold into the steps that run the frame's
// first and last slots. The frame's record store lives only while the
// frame runs.
type session struct {
	*framed.Session[state]
	replicas int
	// slotBuf is scratch for one tag's replica slots.
	slotBuf []int
}

// Step implements protocol.Session. A done session keeps stepping: with
// the backlog floored at one, the minimum-size frame keeps polling the
// field, so newly admitted tags are observed in the next frame.
func (s *session) Step() (bool, error) {
	if err := s.Err(); err != nil {
		return false, err
	}
	st := &s.State
	if !s.InFrame() {
		// At least one slot more than the replicas, so they always fit.
		frameSize := max(int(math.Round(float64(st.backlog)/OptimalLoad))*st.growth, s.replicas+1)
		occ, err := s.OpenFrame(frameSize, 1)
		if err != nil {
			return false, err
		}

		// Replica placement: each tag picks Replicas distinct slots. In
		// the real scheme a decoded packet's header points at its twin
		// slots; the record store's member index realises the same
		// knowledge.
		env := s.Env()
		for _, id := range s.Unread {
			s.slotBuf = env.RNG.SampleDistinctAppend(s.slotBuf[:0], s.replicas, frameSize)
			for _, slot := range s.slotBuf {
				occ[slot] = append(occ[slot], id)
			}
		}
		st.placed = len(s.Unread)

		// Tags already identified in earlier frames (but retransmitting
		// after a lost acknowledgement) are marked known so their replicas
		// are subtracted on sight.
		s.Store = record.NewStore()
		s.Store.Tracer = env.Tracer
		s.Store.Quarantine = env.Hardened()
		for _, id := range s.Unread {
			if _, ok := s.Seen[id]; ok {
				s.Store.MarkKnown(id)
			}
		}
	}

	// Observe one slot: decode a singleton directly, record a collision.
	obs, tx, slot := s.Observe()
	switch obs.Kind {
	case channel.Singleton:
		// A tag can appear in two singleton slots of one frame; it is
		// read once and its twin is simply redundant.
		s.direct(obs.ID)
	case channel.Collision:
		for _, res := range s.Store.Add(slot, obs.Mix, tx) {
			s.countResolved(int(slot), res.ID)
		}
	case channel.Captured:
		// Capture effect: the slot collided but the strongest replica
		// decoded. Treat the captured ID as a direct read feeding the
		// end-of-frame cancellation queue, and keep the recording — with
		// the captured tag known, Add subtracts it on arrival.
		s.direct(obs.ID)
		s.Store.MarkKnown(obs.ID)
		for _, res := range s.Store.Add(slot, obs.Mix, tx) {
			s.countResolved(int(slot), res.ID)
		}
	}
	if !s.EndSlot(obs.Kind, len(tx)) {
		return false, nil
	}

	// Frame end. Iterative cancellation: each decoded tag's replicas are
	// subtracted from their slots; every stripped-bare record yields a new
	// tag, whose replicas the store cascades through in turn.
	for _, id := range s.Pending {
		for _, res := range s.Store.OnIdentified(id) {
			s.countResolved(int(res.Slot), res.ID)
		}
	}
	s.Store = nil
	if st.placed == 0 {
		return true, nil
	}
	if len(s.Read) == 0 {
		st.growth *= 2
	} else {
		st.growth = 1
	}
	s.FilterRead()
	st.backlog = max(st.backlog-len(s.Read), 1)
	return false, nil
}

// direct counts and acknowledges a tag decoded from the current slot,
// queueing a first read for the frame-end cancellation pass.
func (s *session) direct(id tagid.ID) {
	if s.Direct(id) {
		s.Pending = append(s.Pending, id)
	}
}

// countResolved counts a tag recovered by interference cancellation and
// acknowledges it. seq is the run-wide slot the acknowledgement is
// attributed to: the current slot for record-time resolutions, the
// record's own slot for the frame-end cascade.
func (s *session) countResolved(seq int, id tagid.ID) {
	if s.Identify(id, true) {
		s.Ack(seq, id, obsev.AckResolvedID)
	}
}

// Admit implements protocol.Session: the tags join the unread backlog,
// place replicas from the next frame on, and raise the backlog estimate
// the frame sizing uses.
func (s *session) Admit(ids []tagid.ID) {
	n := s.Outstanding()
	s.Session.Admit(ids)
	s.State.backlog += s.Outstanding() - n
}

// Revoke implements protocol.Session: the tags leave the backlog, their
// not-yet-observed replicas are stripped from the current frame, their
// already-recorded replicas are invalidated in the frame's store, and the
// backlog estimate drops (never below one).
func (s *session) Revoke(ids []tagid.ID) {
	n := s.Outstanding()
	s.Session.Revoke(ids)
	if s.State.backlog > 1 {
		s.State.backlog = max(s.State.backlog-(n-s.Outstanding()), 1)
	}
}
