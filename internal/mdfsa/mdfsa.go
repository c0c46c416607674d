// Package mdfsa implements Multi-Packet-Reception Dynamic Framed Slotted
// ALOHA: the DFSA baseline upgraded with an M-capable decode stack and the
// matching frame-size rule (Pudasaini, Kang & Shin, "Multipacket reception
// aware...", arXiv:1311.7458).
//
// Like DFSA, each unread tag picks one uniformly random slot per frame.
// Unlike DFSA, colliding slots are not pure waste: the reader records every
// collision and feeds it to the ANC record store, so a k-collision with
// k <= M resolves by cascade once enough constituents are known, and a
// captured slot acknowledges its strongest constituent immediately. The
// frame size follows the MPR-optimal load rule L = backlog/mu*_M rather
// than Schoute's backlog ~ 2.39c, where mu*_M maximises the expected
// per-slot decode yield of an M-capable receiver (estimate.MPROptimalLoad).
//
// The backlog itself is inverted from the per-frame collision count with
// the exact framed-ALOHA estimator: slot occupancy in a frame of f slots
// is Binomial(N, 1/f), which is precisely estimate.Exact's model at
// p = 1/f.
package mdfsa

import (
	"fmt"

	"github.com/ancrfid/ancrfid/internal/estimate"
	"github.com/ancrfid/ancrfid/internal/framed"
	"github.com/ancrfid/ancrfid/internal/protocol"
)

// Config parameterises MDFSA.
type Config struct {
	// M is the reception capability the frame-size rule is tuned for: the
	// maximum collision multiplicity the decode stack can eventually
	// resolve. It should match the channel's capability (Lambda or
	// Capability.MaxOrder). Zero or negative selects 2.
	M int
	// InitialFrame is the first frame size. Zero grants the perfect
	// initial estimate (first frame = N/mu*_M for the starting
	// population), mirroring the DFSA baseline's conservative seeding; see
	// the corresponding note on dfsa.Config.InitialFrame.
	InitialFrame int
	// MaxFrame caps the frame size; zero means uncapped.
	MaxFrame int
}

// Protocol is a configured MDFSA instance.
type Protocol struct {
	cfg Config
	mu  float64 // MPR-optimal per-slot load mu*_M, fixed by M
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns an MDFSA instance; M defaults to 2.
func New(cfg Config) *Protocol {
	if cfg.M < 1 {
		cfg.M = 2
	}
	return &Protocol{cfg: cfg, mu: estimate.MPROptimalLoad(cfg.M)}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("MDFSA-%d", p.cfg.M) }

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// Begin implements protocol.SessionProtocol. The session keeps a
// persistent record store; records beyond the decode capability can never
// resolve (a captured slot's residual still fits: k members leave k-1
// unknowns), so the store drops them.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	frameSize := p.cfg.InitialFrame
	if frameSize <= 0 {
		frameSize = estimate.MPRFrameSize(float64(len(env.Tags)), p.cfg.M)
	}
	return framed.New(env, p.Name(), policy{p: p, frameSize: frameSize}, p.cfg.M+1)
}

// policy is MDFSA's frame rule: DFSA's frame loop with the exact backlog
// estimator and the MPR-optimal frame size. Like DFSA, an empty field
// settles into one-slot frames so newly admitted tags are observed.
type policy struct {
	p         *Protocol
	frameSize int
}

// Open implements framed.Policy.
func (p *policy) Open(e *framed.Engine) framed.Frame {
	return framed.Frame{Size: framed.Clamp(p.frameSize, p.p.cfg.MaxFrame), P: 1, Tags: e.Unread}
}

// Close implements framed.Policy. It re-estimates the backlog from the
// collision count (occupancy in a frame of f slots is Binomial(N, 1/f))
// and sizes the next frame for the MPR-optimal load. A saturated frame
// (every slot colliding) falls outside the estimator's domain; the frame
// doubles instead.
func (p *policy) Close(e *framed.Engine, f framed.Stats) bool {
	if f.Transmissions == 0 {
		return true
	}
	est, ok := estimate.Exact(f.Collisions, f.Len, 1/float64(f.Len))
	if !ok {
		p.frameSize = 2 * f.Len
	} else {
		backlog := est - float64(f.Identified-f.IdentifiedBefore)
		p.frameSize = estimate.MPRFrameSize(backlog, p.p.cfg.M)
	}
	e.TraceEstimate(float64(p.frameSize)*p.p.mu, est)
	return false
}
