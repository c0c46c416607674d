package server

import (
	"errors"
	"reflect"
	"testing"

	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// FuzzCheckpointDecode pins the recovery scan's core safety property:
// DecodeCheckpoint never panics, whatever bytes a torn write, a bad disk
// or an adversary put under a .ckpt name — every failure is one of the
// typed corruption errors, and every success round-trips.
func FuzzCheckpointDecode(f *testing.F) {
	good, err := EncodeCheckpoint(testRecord())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("RFCK"))
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCheckpointTruncated) &&
				!errors.Is(err, ErrCheckpointMagic) &&
				!errors.Is(err, ErrCheckpointVersion) &&
				!errors.Is(err, ErrCheckpointChecksum) &&
				!errors.Is(err, ErrCheckpointRecord) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A record the decoder accepted must survive re-encoding: the
		// codec's accepted set is closed under round trip.
		re, err := EncodeCheckpoint(rec)
		if err != nil {
			t.Fatalf("re-encode of accepted record failed: %v", err)
		}
		if _, err := DecodeCheckpoint(re); err != nil {
			t.Fatalf("round trip of accepted record failed: %v", err)
		}
	})
}

// FuzzCheckpointEncode pins the writer direction: every record the server
// can produce either encodes to a checkpoint that decodes back to an equal
// record, or is refused up front with the bound error. Records are built
// the way hosted.record assembles them — a valid spec, a step count (up to
// twice the replay bound), and a journal of formatID-rendered IDs at
// nondecreasing steps.
func FuzzCheckpointEncode(f *testing.F) {
	f.Add(uint64(1), uint64(900), uint8(3), uint16(50), uint8(0))
	f.Add(uint64(2), uint64(0), uint8(0), uint16(0), uint8(1))
	f.Add(uint64(3), uint64(maxRecordSteps), uint8(8), uint16(1000), uint8(2))
	f.Add(uint64(4), uint64(maxRecordSteps+1), uint8(2), uint16(96), uint8(0))
	f.Add(uint64(5), uint64(1<<26), uint8(40), uint16(7), uint8(3))
	protocols := []string{"FCAT-2", "SCAT-2", "DFSA", "CRDSA"}
	f.Fuzz(func(t *testing.T, seed, steps uint64, nOps uint8, tags uint16, proto uint8) {
		r := rng.New(seed)
		rec := &Record{
			ID:  "sess-fuzz",
			Seq: seed%1000 + 1,
			Spec: Spec{
				Protocol: protocols[int(proto)%len(protocols)],
				Seed:     seed,
				Tags:     int(tags),
				MaxSlots: int(seed % 4096),
				PAckLoss: float64(seed%10) / 10,
			}.withDefaults(),
			Steps: steps % (2*maxRecordSteps + 1),
		}
		var at uint64
		for range int(nOps % 64) {
			at += r.Uint64n(rec.Steps - at + 1)
			op := Op{AtStep: at}
			for _, id := range tagid.Population(r, 1+r.Intn(4)) {
				op.Admit = append(op.Admit, formatID(id))
			}
			if r.Bool(0.5) {
				op.Revoke = append(op.Revoke, formatID(tagid.Random(r)))
			}
			rec.Ops = append(rec.Ops, op)
		}
		data, err := EncodeCheckpoint(rec)
		if err != nil {
			if !errors.Is(err, ErrCheckpointRecord) || rec.Steps <= maxRecordSteps {
				t.Fatalf("encode of a %d-step record failed with %v, want only the replay-bound error", rec.Steps, err)
			}
			return
		}
		got, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatalf("encoder wrote a checkpoint the decoder rejects: %v", err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", got, rec)
		}
	})
}
