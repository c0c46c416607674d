package mdfsa

import (
	"math"
	"testing"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/dfsa"
	"github.com/ancrfid/ancrfid/internal/estimate"
	"github.com/ancrfid/ancrfid/internal/framed"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

func env(seed uint64, tags int, cfg channel.AbstractConfig) *protocol.Env {
	r := rng.New(seed)
	return &protocol.Env{
		RNG:     r,
		Tags:    tagid.Population(r, tags),
		Channel: channel.NewAbstract(cfg, r),
		Timing:  air.ICode(),
	}
}

func TestName(t *testing.T) {
	if New(Config{}).Name() != "MDFSA-2" {
		t.Fatal("wrong default name")
	}
	if New(Config{M: 3}).Name() != "MDFSA-3" {
		t.Fatal("wrong name")
	}
}

func TestIdentifiesEveryTag(t *testing.T) {
	for _, n := range []int{1, 5, 200, 4000} {
		m, err := New(Config{}).Run(env(uint64(n), n, channel.AbstractConfig{Lambda: 2}))
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if m.Identified() != n {
			t.Fatalf("N=%d: identified %d", n, m.Identified())
		}
	}
}

func TestEmptyPopulation(t *testing.T) {
	m, err := New(Config{}).Run(env(1, 0, channel.AbstractConfig{Lambda: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if m.Identified() != 0 {
		t.Fatal("identified tags in empty field")
	}
}

func TestResolvesCollisions(t *testing.T) {
	// Frames run above load 1 (mu*_2 ~ 1.618), so 2-collisions are common
	// and a meaningful share of the population must arrive by cascade
	// resolution, not singleton luck.
	m, err := New(Config{}).Run(env(7, 3000, channel.AbstractConfig{Lambda: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if m.ResolvedIDs == 0 {
		t.Fatal("no collision-resolved identifications; the record store is not wired")
	}
	if frac := float64(m.ResolvedIDs) / 3000; frac < 0.15 {
		t.Errorf("resolved fraction %.3f, want a substantial share", frac)
	}
}

func TestBeatsDFSASlotCount(t *testing.T) {
	// With the same lambda = 2 channel, recovering collision slots must
	// make identification cheaper per tag than the collision-blind DFSA
	// baseline (which needs ~ e*N slots).
	const n = 5000
	md, err := New(Config{}).Run(env(11, n, channel.AbstractConfig{Lambda: 2}))
	if err != nil {
		t.Fatal(err)
	}
	base, err := dfsa.New(dfsa.Config{}).Run(env(11, n, channel.AbstractConfig{Lambda: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if md.TotalSlots() >= base.TotalSlots() {
		t.Fatalf("MDFSA used %d slots, DFSA %d — MPR recovery should win", md.TotalSlots(), base.TotalSlots())
	}
}

func TestFrameSizingTracksMPRLoad(t *testing.T) {
	// The first frame of a perfectly seeded run is N/mu*_M rounded.
	for _, m := range []int{2, 3, 4} {
		p := New(Config{M: m})
		e := env(uint64(m), 1000, channel.AbstractConfig{Lambda: m})
		s := p.Begin(e).(*framed.Session[policy])
		want := estimate.MPRFrameSize(1000, m)
		if s.State.frameSize != want {
			t.Fatalf("M=%d: initial frame %d, want %d", m, s.State.frameSize, want)
		}
		if math.Abs(float64(want)*estimate.MPROptimalLoad(m)-1000) > float64(m) {
			t.Fatalf("M=%d: frame %d does not match load rule", m, want)
		}
	}
}

func TestHigherMNeedsFewerSlots(t *testing.T) {
	// A more capable decode stack (larger matched M and lambda) should
	// finish the same population in fewer slots.
	const n = 4000
	m2, err := New(Config{M: 2}).Run(env(5, n, channel.AbstractConfig{Lambda: 2}))
	if err != nil {
		t.Fatal(err)
	}
	m4, err := New(Config{M: 4}).Run(env(5, n, channel.AbstractConfig{Lambda: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if m4.TotalSlots() >= m2.TotalSlots() {
		t.Fatalf("M=4 used %d slots, M=2 used %d", m4.TotalSlots(), m2.TotalSlots())
	}
}

func TestCaptureAddsDirectReads(t *testing.T) {
	// With capture enabled on the same seed, some collision slots decode
	// their strongest constituent; the run must complete at least as
	// efficiently and record captured reads as direct identifications.
	const n = 2000
	cfg := channel.AbstractConfig{Lambda: 2}
	plain, err := New(Config{}).Run(env(9, n, cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Capability = channel.Capability{MaxOrder: 2, CaptureSINRdB: 3}
	capm, err := New(Config{}).Run(env(9, n, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if capm.Identified() != n || plain.Identified() != n {
		t.Fatal("incomplete read")
	}
	if capm.TotalSlots() > plain.TotalSlots() {
		t.Errorf("capture-enabled run used %d slots, capture-free %d", capm.TotalSlots(), plain.TotalSlots())
	}
}

func TestAdmitRevoke(t *testing.T) {
	e := env(13, 50, channel.AbstractConfig{Lambda: 2})
	r2 := rng.New(99)
	extra := tagid.Population(r2, 10)
	s := New(Config{}).Begin(e)
	for i := 0; i < 5; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s.Admit(extra)
	s.Revoke(extra[:5])
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	m := s.Metrics()
	if m.Identified() < 50 {
		t.Fatalf("identified %d of at least 50", m.Identified())
	}
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding %d after done", s.Outstanding())
	}
}
