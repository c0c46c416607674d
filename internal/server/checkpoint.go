// Checkpoint codec: the durable on-disk form of a hosted inventory
// session. A checkpoint does not serialise the protocol session's opaque
// in-memory state (channels, collision recordings, RNG internals); it
// serialises the session's *history* — the creation spec plus the journal
// of admissions and revocations, each pinned to the step count it was
// applied at. Because every protocol run in this module is a pure function
// of its Env and its operation sequence (the determinism contract of
// docs/architecture.md), replaying that history rebuilds the exact session
// state, bit for bit, including every RNG draw and collision record. The
// file stays small (a spec, a step count and the op journal) and replay
// costs tens of nanoseconds per step (BenchmarkSessionStep).
//
// Framing. A checkpoint file is
//
//	magic   4 bytes  "RFCK"
//	version 1 byte   (1)
//	length  4 bytes  big-endian payload byte count
//	crc32   4 bytes  big-endian IEEE CRC-32 of the payload
//	payload JSON-encoded Record
//
// DecodeCheckpoint validates every layer and returns typed errors — never
// a panic, whatever the input (FuzzCheckpointDecode pins this) — so the
// recovery scan can quarantine damaged files and keep serving.
package server

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/ancrfid/ancrfid/internal/tagid"
)

// checkpointMagic opens every checkpoint file.
var checkpointMagic = [4]byte{'R', 'F', 'C', 'K'}

// checkpointVersion is the current framing version.
const checkpointVersion = 1

// checkpointHeaderLen is the fixed prefix before the JSON payload.
const checkpointHeaderLen = 4 + 1 + 4 + 4

// maxCheckpointPayload bounds the declared payload length so a corrupt
// header cannot make the decoder allocate unbounded memory.
const maxCheckpointPayload = 64 << 20

// Typed corruption errors. Every way a checkpoint can be damaged maps to
// exactly one of these (possibly wrapped with detail); DecodeCheckpoint
// returns nothing else.
var (
	// ErrCheckpointTruncated reports a file shorter than its framing
	// declares — the short-write / crash-mid-write artefact.
	ErrCheckpointTruncated = errors.New("server: checkpoint truncated")
	// ErrCheckpointMagic reports a file that is not a checkpoint at all.
	ErrCheckpointMagic = errors.New("server: bad checkpoint magic")
	// ErrCheckpointVersion reports an unknown framing version.
	ErrCheckpointVersion = errors.New("server: unsupported checkpoint version")
	// ErrCheckpointChecksum reports a payload whose CRC does not verify —
	// the torn-write artefact.
	ErrCheckpointChecksum = errors.New("server: checkpoint checksum mismatch")
	// ErrCheckpointRecord reports a payload that passes the CRC but does
	// not decode to a semantically valid record (reachable by hand-built
	// files), or a record EncodeCheckpoint refuses to write because it
	// exceeds the replay step bound or the payload size bound.
	ErrCheckpointRecord = errors.New("server: invalid checkpoint record")
)

// Spec is the deterministic creation recipe of a hosted session: every
// field that feeds session construction, and nothing that does not. Two
// sessions built from equal specs are bit-identical until their operation
// histories diverge.
type Spec struct {
	// Protocol is the registry display name, e.g. "FCAT-2".
	Protocol string `json:"protocol"`
	// Seed derives the session's RNG, its initial population and its
	// channel state.
	Seed uint64 `json:"seed"`
	// Tags is the initial population size, drawn deterministically from
	// Seed exactly as sim.RunOnce draws it.
	Tags int `json:"tags"`
	// Channel selects the channel model: "abstract" (default) or "signal".
	Channel string `json:"channel,omitempty"`
	// Lambda is the abstract channel's ANC decode capability (default 2).
	Lambda int `json:"lambda,omitempty"`
	// NoiseSigma is the signal channel's AWGN sigma.
	NoiseSigma float64 `json:"noise,omitempty"`
	// MaxSlots bounds the session (0 = the protocol's automatic budget).
	MaxSlots int `json:"max_slots,omitempty"`
	// PAckLoss is the acknowledgement-loss probability.
	PAckLoss float64 `json:"p_ack_loss,omitempty"`
}

// maxSpecTags bounds the initial population a spec may request; it keeps
// one create request (or one forged checkpoint) from sizing a population
// that swallows the process.
const maxSpecTags = 1 << 20

// withDefaults normalises the zero values.
func (sp Spec) withDefaults() Spec {
	if sp.Channel == "" {
		sp.Channel = "abstract"
	}
	if sp.Lambda == 0 {
		sp.Lambda = 2
	}
	return sp
}

// Validate checks the spec's bounds. It does not resolve the protocol
// name — construction does that — but rejects everything else a hostile
// checkpoint could smuggle in.
func (sp Spec) Validate() error {
	if sp.Protocol == "" {
		return errors.New("spec: empty protocol name")
	}
	if sp.Tags < 0 || sp.Tags > maxSpecTags {
		return fmt.Errorf("spec: tags %d out of range [0, %d]", sp.Tags, maxSpecTags)
	}
	switch sp.Channel {
	case "", "abstract", "signal":
	default:
		return fmt.Errorf("spec: unknown channel %q", sp.Channel)
	}
	if sp.Lambda < 0 || sp.Lambda > 16 {
		return fmt.Errorf("spec: lambda %d out of range [0, 16]", sp.Lambda)
	}
	if sp.NoiseSigma < 0 || sp.NoiseSigma > 16 {
		return fmt.Errorf("spec: noise sigma %g out of range", sp.NoiseSigma)
	}
	if sp.MaxSlots < 0 {
		return fmt.Errorf("spec: negative max_slots %d", sp.MaxSlots)
	}
	if sp.PAckLoss < 0 || sp.PAckLoss >= 1 {
		return fmt.Errorf("spec: p_ack_loss %g out of range [0, 1)", sp.PAckLoss)
	}
	return nil
}

// Op is one population mutation of the journal: the tag IDs admitted and
// revoked at a given step count. Admissions apply before revocations
// within one op; ops sharing a step apply in journal order.
type Op struct {
	// AtStep is the number of successful steps executed before the op
	// applied.
	AtStep uint64 `json:"at"`
	// Admit and Revoke hold 24-digit hex tag IDs.
	Admit  []string `json:"admit,omitempty"`
	Revoke []string `json:"revoke,omitempty"`
}

// Record is a checkpoint payload: everything needed to rebuild one hosted
// session by deterministic replay.
type Record struct {
	// ID is the session's server-assigned identifier.
	ID string `json:"id"`
	// Seq is the checkpoint's monotone sequence number within the session.
	Seq uint64 `json:"seq"`
	// Spec is the creation recipe.
	Spec Spec `json:"spec"`
	// Steps is the number of successful Step calls executed at checkpoint
	// time; replay re-executes exactly this many.
	Steps uint64 `json:"steps"`
	// Ops is the admission/revocation journal, AtStep nondecreasing.
	Ops []Op `json:"ops,omitempty"`
}

// maxRecordSteps bounds the step count a record may demand of replay. At
// ~25ns per replayed step this caps recovery of one session near a
// second; a forged record cannot wedge startup.
const maxRecordSteps = 1 << 25

// Validate checks the record's internal consistency: spec bounds, journal
// ordering, step bounds and ID syntax.
func (rec *Record) Validate() error {
	if rec.ID == "" || len(rec.ID) > maxSessionIDLen {
		return fmt.Errorf("record: session id length %d out of range [1, %d]", len(rec.ID), maxSessionIDLen)
	}
	if err := rec.Spec.Validate(); err != nil {
		return err
	}
	if rec.Steps > maxRecordSteps {
		return fmt.Errorf("record: %d steps exceeds replay bound %d", rec.Steps, maxRecordSteps)
	}
	var prev uint64
	for i := range rec.Ops {
		op := &rec.Ops[i]
		if op.AtStep < prev {
			return fmt.Errorf("record: op %d at step %d after step %d", i, op.AtStep, prev)
		}
		if op.AtStep > rec.Steps {
			return fmt.Errorf("record: op %d at step %d beyond checkpointed step %d", i, op.AtStep, rec.Steps)
		}
		prev = op.AtStep
		for _, h := range op.Admit {
			if _, err := parseID(h); err != nil {
				return fmt.Errorf("record: op %d admit: %v", i, err)
			}
		}
		for _, h := range op.Revoke {
			if _, err := parseID(h); err != nil {
				return fmt.Errorf("record: op %d revoke: %v", i, err)
			}
		}
	}
	return nil
}

// formatID renders a tag ID as 24 hex digits (no separators — the journal
// form, denser than tagid.ID.String).
func formatID(id tagid.ID) string { return hex.EncodeToString(id[:]) }

// parseID inverts formatID.
func parseID(s string) (tagid.ID, error) {
	var id tagid.ID
	if len(s) != 2*len(id) {
		return id, fmt.Errorf("tag id %q: want %d hex digits", s, 2*len(id))
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, fmt.Errorf("tag id %q: %v", s, err)
	}
	return id, nil
}

// EncodeCheckpoint frames rec for disk. It refuses, with an
// ErrCheckpointRecord-wrapped error, the two bounds DecodeCheckpoint
// enforces that a live session can outgrow — the replay step bound and
// the payload size — so every checkpoint it writes can be read back. The
// rest of Validate is not repeated: the server renders IDs only through
// formatID and appends ops at its monotone step count, and the full check
// costs a noticeable share of a large journal's encode.
func EncodeCheckpoint(rec *Record) ([]byte, error) {
	if rec.Steps > maxRecordSteps {
		return nil, fmt.Errorf("%w: %d steps exceeds replay bound %d", ErrCheckpointRecord, rec.Steps, maxRecordSteps)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxCheckpointPayload {
		return nil, fmt.Errorf("%w: payload %d bytes exceeds %d", ErrCheckpointRecord, len(payload), maxCheckpointPayload)
	}
	buf := make([]byte, checkpointHeaderLen+len(payload))
	copy(buf[0:4], checkpointMagic[:])
	buf[4] = checkpointVersion
	binary.BigEndian.PutUint32(buf[5:9], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[9:13], crc32.ChecksumIEEE(payload))
	copy(buf[checkpointHeaderLen:], payload)
	return buf, nil
}

// DecodeCheckpoint parses and validates a framed checkpoint. Every failure
// is one of the typed corruption errors; arbitrary input never panics.
func DecodeCheckpoint(data []byte) (*Record, error) {
	if len(data) < checkpointHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrCheckpointTruncated, len(data), checkpointHeaderLen)
	}
	if [4]byte(data[0:4]) != checkpointMagic {
		return nil, fmt.Errorf("%w: % x", ErrCheckpointMagic, data[0:4])
	}
	if data[4] != checkpointVersion {
		return nil, fmt.Errorf("%w: %d", ErrCheckpointVersion, data[4])
	}
	n := binary.BigEndian.Uint32(data[5:9])
	if n > maxCheckpointPayload {
		return nil, fmt.Errorf("%w: declared payload %d exceeds %d", ErrCheckpointRecord, n, maxCheckpointPayload)
	}
	if len(data) < checkpointHeaderLen+int(n) {
		return nil, fmt.Errorf("%w: payload %d of %d bytes present",
			ErrCheckpointTruncated, len(data)-checkpointHeaderLen, n)
	}
	if len(data) > checkpointHeaderLen+int(n) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCheckpointRecord, len(data)-checkpointHeaderLen-int(n))
	}
	payload := data[checkpointHeaderLen:]
	if sum := crc32.ChecksumIEEE(payload); sum != binary.BigEndian.Uint32(data[9:13]) {
		return nil, fmt.Errorf("%w: crc32 %08x, header says %08x",
			ErrCheckpointChecksum, sum, binary.BigEndian.Uint32(data[9:13]))
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointRecord, err)
	}
	if err := rec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpointRecord, err)
	}
	return &rec, nil
}
