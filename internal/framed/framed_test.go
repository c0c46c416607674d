package framed

import (
	"testing"

	"github.com/ancrfid/ancrfid/internal/air"
	"github.com/ancrfid/ancrfid/internal/channel"
	"github.com/ancrfid/ancrfid/internal/protocol"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// fixed is a minimal policy: frames of a fixed size until a frame carries
// no transmission. frames counts Close calls, so a restore must rewind it.
type fixed struct {
	size, frames int
}

func (p *fixed) Open(e *Engine) Frame { return Frame{Size: p.size, P: 1, Tags: e.Unread} }

func (p *fixed) Close(_ *Engine, f Stats) bool {
	p.frames++
	return f.Transmissions == 0
}

func testSession(dropAbove int) *Session[fixed] {
	r := rng.New(5)
	env := &protocol.Env{
		RNG:     r,
		Tags:    tagid.Population(r, 40),
		Channel: channel.NewAbstract(channel.AbstractConfig{Lambda: 2}, r),
		Timing:  air.ICode(),
	}
	return New(env, "fixed", fixed{size: 16}, dropAbove)
}

func drive(t *testing.T, s *Session[fixed]) {
	t.Helper()
	for {
		done, err := s.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return
		}
	}
}

// TestRestoreIsolatedFromLiveSession snapshots mid-frame, then edits the
// live session's roster (Revoke strips the in-frame buckets and the
// backlog, Admit grows it) and runs it on before restoring. The restored
// run must match an untouched twin exactly, so the checkpoint shares no
// bucket, backlog, read set, record store or policy state with the live
// session.
func TestRestoreIsolatedFromLiveSession(t *testing.T) {
	for _, dropAbove := range []int{0, 3} {
		s, twin := testSession(dropAbove), testSession(dropAbove)
		for i := 0; i < 5; i++ {
			for _, x := range []*Session[fixed]{s, twin} {
				if _, err := x.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !s.InFrame() {
			t.Fatal("snapshot point is not mid-frame")
		}
		cp, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		s.Revoke(append([]tagid.ID(nil), s.Unread[:20]...))
		s.Admit(tagid.Population(rng.New(9), 5))
		drive(t, s)
		if err := s.Restore(cp); err != nil {
			t.Fatal(err)
		}
		drive(t, s)
		drive(t, twin)
		if s.Metrics() != twin.Metrics() || s.State != twin.State || s.Outstanding() != twin.Outstanding() {
			t.Fatalf("dropAbove=%d: restored run diverged from its twin:\n got %+v %+v\nwant %+v %+v",
				dropAbove, s.Metrics(), s.State, twin.Metrics(), twin.State)
		}
	}
}

// TestRevokeStripsEveryRemainingSlot checks that a revoked tag leaves the
// backlog and every bucket of the rest of the frame — a CRDSA tag holds
// several — and that Admit ignores tags already present or identified.
func TestRevokeStripsEveryRemainingSlot(t *testing.T) {
	s := testSession(0)
	if _, err := s.Step(); err != nil {
		t.Fatal(err)
	}
	id := tagid.Population(rng.New(9), 1)[0]
	s.Admit([]tagid.ID{id})
	for j := s.slotJ; j < s.frameLen; j += 3 {
		s.occ[j] = append(s.occ[j], id)
	}
	n := s.Outstanding()
	s.Revoke([]tagid.ID{id})
	if s.Outstanding() != n-1 {
		t.Fatalf("outstanding %d after revoke, want %d", s.Outstanding(), n-1)
	}
	for j := s.slotJ; j < s.frameLen; j++ {
		for _, x := range s.occ[j] {
			if x == id {
				t.Fatalf("revoked tag still in slot %d", j)
			}
		}
	}
	s.Admit([]tagid.ID{id, id, s.Unread[0]})
	if s.Outstanding() != n || s.Metrics().Tags != 42 {
		t.Fatalf("admit: outstanding %d tags %d, want %d and 42", s.Outstanding(), s.Metrics().Tags, n)
	}
}
