// Package edfsa implements the Enhanced Dynamic Framed Slotted ALOHA
// baseline (Lee, Joo & Lee, MOBIQUITOUS 2005; paper reference [5]).
//
// EDFSA caps the frame size at 256 slots. When the estimated number of
// unread tags exceeds what a 256-slot frame can serve efficiently (354
// tags, per the published table), the tags are split into M = 2^k modulo
// groups and only one group responds per frame; for smaller backlogs the
// frame size is chosen from the published range table.
package edfsa

import (
	"math"

	"github.com/ancrfid/ancrfid/internal/dfsa"
	"github.com/ancrfid/ancrfid/internal/framed"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// maxFrame is EDFSA's largest (and default) frame size.
const maxFrame = 256

// maxUnreadPerFrame is the published threshold above which tags are split
// into modulo groups (354 unread tags per 256-slot frame).
const maxUnreadPerFrame = 354

// Config parameterises EDFSA.
type Config struct {
	// InitialEstimate seeds the unread-tag estimate. Zero grants the reader
	// a perfect initial estimate (the population size), matching the
	// ramp-free baseline behaviour in the paper's evaluation; see the
	// corresponding note on dfsa.Config.InitialFrame.
	InitialEstimate int
}

// Protocol is a configured EDFSA instance.
type Protocol struct {
	cfg Config
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns an EDFSA instance.
func New(cfg Config) *Protocol {
	return &Protocol{cfg: cfg}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "EDFSA" }

// frameSizeFor returns the published frame size for an estimated backlog
// (Lee et al., Table 2) together with the number of modulo groups.
func frameSizeFor(est int) (frame, groups int) {
	switch {
	case est <= 11:
		return 8, 1
	case est <= 19:
		return 16, 1
	case est <= 40:
		return 32, 1
	case est <= 81:
		return 64, 1
	case est <= 176:
		return 128, 1
	case est <= maxUnreadPerFrame:
		return maxFrame, 1
	default:
		groups = 1
		for est > maxUnreadPerFrame*groups {
			groups *= 2
		}
		return maxFrame, groups
	}
}

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	estimated := p.cfg.InitialEstimate
	if estimated <= 0 {
		estimated = len(env.Tags)
	}
	return framed.New(env, p.Name(), policy{estimated: max(estimated, 1)}, 0)
}

// policy is EDFSA's frame rule. A round sizes its frame from the table and
// runs one group-frame per modulo group; the round's end re-estimates the
// backlog. An empty field settles into empty rounds at the smallest table
// frame, so newly admitted tags are observed in the next round.
type policy struct {
	estimated int
	round     uint64

	// Current-round state, meaningful while inRound.
	inRound                             bool
	frame, groups                       int
	g                                   int
	roundCollisions, roundTransmissions int
}

// Open implements framed.Policy. The round is sized before the engine's
// slot-budget check.
func (p *policy) Open(e *framed.Engine) framed.Frame {
	if !p.inRound {
		p.frame, p.groups = frameSizeFor(p.estimated)
		p.g = 0
		p.roundCollisions, p.roundTransmissions = 0, 0
		p.inRound = true
	}
	members := groupMembers(e.Members[:0], e.Unread, p.round, p.groups, p.g)
	if p.groups > 1 {
		e.Members = members
	}
	return framed.Frame{Size: p.frame, P: 1 / float64(p.groups), Tags: members}
}

// Close implements framed.Policy.
func (p *policy) Close(e *framed.Engine, f framed.Stats) bool {
	p.roundCollisions += f.Collisions
	p.roundTransmissions += f.Transmissions
	p.g++
	if p.g < p.groups {
		return false
	}

	// Round end.
	p.inRound = false
	p.round++
	if p.roundTransmissions == 0 {
		return true
	}
	p.estimated = max(int(math.Round(dfsa.SchouteFactor*float64(p.roundCollisions))), 1)
	e.TraceEstimate(float64(p.estimated), 0)
	return false
}

// groupMembers selects the unread tags whose hash (salted by the round so
// group boundaries reshuffle between rounds) falls in modulo group g,
// appending them to buf (reused across groups; ignored when groups == 1,
// where the unread slice itself is the single group).
func groupMembers(buf, unread []tagid.ID, round uint64, groups, g int) []tagid.ID {
	if groups == 1 {
		return unread
	}
	for _, id := range unread {
		if int(id.ReportHash(round))%groups == g {
			buf = append(buf, id)
		}
	}
	return buf
}
