package server

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

func testRecord() *Record {
	ids := tagid.Population(rng.New(7), 4)
	return &Record{
		ID:    "sess-1",
		Seq:   3,
		Spec:  Spec{Protocol: "FCAT-2", Seed: 42, Tags: 50},
		Steps: 900,
		Ops: []Op{
			{AtStep: 100, Admit: []string{formatID(ids[0]), formatID(ids[1])}},
			{AtStep: 100, Revoke: []string{formatID(ids[2])}},
			{AtStep: 640, Admit: []string{formatID(ids[3])}},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	rec := testRecord()
	data, err := EncodeCheckpoint(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != rec.ID || got.Seq != rec.Seq || got.Steps != rec.Steps || len(got.Ops) != len(rec.Ops) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, rec)
	}
	if got.Spec != rec.Spec.withDefaults() && got.Spec != rec.Spec {
		t.Fatalf("spec mismatch: got %+v want %+v", got.Spec, rec.Spec)
	}
}

func TestCheckpointTypedErrors(t *testing.T) {
	rec := testRecord()
	good, err := EncodeCheckpoint(rec)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrCheckpointTruncated},
		{"short header", good[:8], ErrCheckpointTruncated},
		{"truncated payload", good[:len(good)-5], ErrCheckpointTruncated},
		{"bad magic", append([]byte("NOPE"), good[4:]...), ErrCheckpointMagic},
		{"bad version", func() []byte {
			d := append([]byte(nil), good...)
			d[4] = 99
			return d
		}(), ErrCheckpointVersion},
		{"flipped payload bit", func() []byte {
			d := append([]byte(nil), good...)
			d[len(d)-3] ^= 0x40
			return d
		}(), ErrCheckpointChecksum},
		{"trailing garbage", append(append([]byte(nil), good...), 0xAA), ErrCheckpointRecord},
		{"huge declared length", func() []byte {
			d := append([]byte(nil), good...)
			binary.BigEndian.PutUint32(d[5:9], maxCheckpointPayload+1)
			return d
		}(), ErrCheckpointRecord},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeCheckpoint(tc.data)
			if !errors.Is(err, tc.want) {
				t.Fatalf("DecodeCheckpoint: got %v, want %v", err, tc.want)
			}
		})
	}
}

func TestRecordValidate(t *testing.T) {
	base := testRecord()
	mutate := func(f func(*Record)) *Record {
		r := *base
		r.Ops = append([]Op(nil), base.Ops...)
		f(&r)
		return &r
	}
	cases := []struct {
		name string
		rec  *Record
		want string
		// encodeRefuses marks a bound a live session can outgrow: the
		// writer must refuse it too, or the write succeeds and restart
		// quarantines the session.
		encodeRefuses bool
	}{
		{"empty id", mutate(func(r *Record) { r.ID = "" }), "session id", false},
		{"long id", mutate(func(r *Record) { r.ID = strings.Repeat("x", maxSessionIDLen+1) }), "session id", false},
		{"too many steps", mutate(func(r *Record) { r.Steps = maxRecordSteps + 1 }), "replay bound", true},
		{"ops out of order", mutate(func(r *Record) { r.Ops[2].AtStep = 50 }), "after step", false},
		{"op beyond steps", mutate(func(r *Record) { r.Ops[2].AtStep = r.Steps + 1 }), "beyond checkpointed step", false},
		{"bad hex id", mutate(func(r *Record) { r.Ops[0].Admit = []string{"zz"} }), "hex digits", false},
		{"bad spec", mutate(func(r *Record) { r.Spec.Tags = -1 }), "tags", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rec.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate: got %v, want error containing %q", err, tc.want)
			}
			if !tc.encodeRefuses {
				return
			}
			if _, err := EncodeCheckpoint(tc.rec); !errors.Is(err, ErrCheckpointRecord) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("EncodeCheckpoint: got %v, want ErrCheckpointRecord containing %q", err, tc.want)
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Protocol: "DFSA", Tags: 10}.withDefaults()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Protocol: "", Tags: 10},
		{Protocol: "DFSA", Tags: maxSpecTags + 1},
		{Protocol: "DFSA", Tags: 10, Channel: "quantum"},
		{Protocol: "DFSA", Tags: 10, Lambda: 99},
		{Protocol: "DFSA", Tags: 10, NoiseSigma: -1},
		{Protocol: "DFSA", Tags: 10, MaxSlots: -1},
		{Protocol: "DFSA", Tags: 10, PAckLoss: 1},
	}
	for i, sp := range bad {
		if err := sp.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, sp)
		}
	}
}

func TestFormatParseID(t *testing.T) {
	ids := tagid.Population(rng.New(3), 16)
	for _, id := range ids {
		s := formatID(id)
		if len(s) != 24 {
			t.Fatalf("formatID length %d, want 24", len(s))
		}
		back, err := parseID(s)
		if err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("parseID(formatID(%v)) = %v", id, back)
		}
	}
	for _, bad := range []string{"", "abc", strings.Repeat("g", 24), strings.Repeat("a", 23)} {
		if _, err := parseID(bad); err == nil {
			t.Errorf("parseID(%q) accepted", bad)
		}
	}
}
