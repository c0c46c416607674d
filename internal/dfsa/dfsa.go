// Package dfsa implements the Dynamic Framed Slotted ALOHA baseline
// (Cha & Kim, CCNC 2006; paper reference [6]).
//
// Each unread tag picks one uniformly random slot per frame. The reader
// reads the singleton slots, estimates the remaining backlog from the
// collision count, and sizes the next frame to match the backlog — the
// condition under which framed ALOHA attains its 1/e per-slot efficiency.
// Collision slots carry no information for DFSA; they are the waste FCAT
// recovers.
package dfsa

import (
	"math"

	"github.com/ancrfid/ancrfid/internal/framed"
	"github.com/ancrfid/ancrfid/internal/protocol"
)

// SchouteFactor is the classical expected number of tags per colliding
// slot at optimal load (Schoute's backlog estimate: backlog ~ 2.39 * c).
const SchouteFactor = 2.39

// Config parameterises DFSA.
type Config struct {
	// InitialFrame is the first frame size. Zero gives the reader a perfect
	// initial estimate (first frame = population size): Cha & Kim pair DFSA
	// with a fast tag-estimation step, and the paper's flat DFSA throughput
	// across N = 1000..20000 shows their baseline pays no ramp-up cost.
	// Granting the baseline the perfect estimate is the conservative choice
	// for the FCAT-versus-DFSA comparison.
	InitialFrame int
	// MaxFrame caps the frame size; zero means uncapped (pure DFSA —
	// EDFSA is the variant that caps and groups). Beware: a capped frame
	// saturates when the backlog far exceeds the cap (no singletons, so no
	// progress) — this is precisely the failure mode EDFSA's tag grouping
	// exists to fix, and such runs end with ErrNoProgress.
	MaxFrame int
}

// Protocol is a configured DFSA instance.
type Protocol struct {
	cfg Config
}

var _ protocol.Protocol = (*Protocol)(nil)

// New returns a DFSA instance.
func New(cfg Config) *Protocol {
	return &Protocol{cfg: cfg}
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "DFSA" }

var _ protocol.SessionProtocol = (*Protocol)(nil)

// Run implements protocol.Protocol by driving a fresh session to
// completion.
func (p *Protocol) Run(env *protocol.Env) (protocol.Metrics, error) {
	return protocol.RunSession(p, env)
}

// Begin implements protocol.SessionProtocol.
func (p *Protocol) Begin(env *protocol.Env) protocol.Session {
	frameSize := p.cfg.InitialFrame
	if frameSize <= 0 {
		frameSize = len(env.Tags)
	}
	return framed.New(env, p.Name(), policy{cfg: &p.cfg, frameSize: frameSize}, 0)
}

// policy is DFSA's frame rule: every unread tag draws one slot, and the
// next frame matches Schoute's backlog estimate. An empty field settles
// into one-slot frames (the estimate of an empty frame, clamped), so
// newly admitted tags are observed on the next frame.
type policy struct {
	cfg       *Config
	frameSize int
}

// Open implements framed.Policy.
func (p *policy) Open(e *framed.Engine) framed.Frame {
	return framed.Frame{Size: framed.Clamp(p.frameSize, p.cfg.MaxFrame), P: 1, Tags: e.Unread}
}

// Close implements framed.Policy.
func (p *policy) Close(e *framed.Engine, f framed.Stats) bool {
	if f.Transmissions == 0 {
		// An entirely empty frame proves every tag has been read.
		return true
	}
	// Schoute's estimate: each colliding slot hides ~2.39 tags.
	p.frameSize = int(math.Round(SchouteFactor * float64(f.Collisions)))
	e.TraceEstimate(float64(p.frameSize), 0)
	return false
}
