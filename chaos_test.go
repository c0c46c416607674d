package ancrfid_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid"
)

// chaosShapes are the fault compositions the chaos matrix sweeps. Each
// composes several shapes so their interactions are exercised, not just the
// shapes in isolation.
var chaosShapes = []struct {
	name   string
	faults ancrfid.FaultConfig
}{
	{"ackloss+burst", ancrfid.FaultConfig{
		AckLoss: 0.2,
		Burst:   ancrfid.FaultBurstConfig{Duty: 0.12, MeanBad: 4},
	}},
	{"mute+departures", ancrfid.FaultConfig{
		MuteProb: 0.15,
		AckLoss:  0.05,
	}},
	{"stuck+corrupt", ancrfid.FaultConfig{
		StuckProb:        0.1,
		CorruptSingleton: 0.1,
		CorruptDecode:    0.3,
	}},
	{"crash-restart", ancrfid.FaultConfig{
		AckLoss:    0.1,
		Burst:      ancrfid.FaultBurstConfig{Duty: 0.08, MeanBad: 4},
		CrashEvery: 96,
	}},
}

// chaosConfig builds the campaign for one matrix cell.
func chaosConfig(chanKind string, faults ancrfid.FaultConfig, workers int) ancrfid.ChaosConfig {
	cfg := ancrfid.ChaosConfig{
		Config: ancrfid.SimConfig{Tags: 30, Runs: 2, Seed: 23, Workers: workers},
		Workload: ancrfid.WorkloadConfig{
			Duration:      1500 * time.Millisecond,
			ArrivalRate:   25,
			DepartureRate: 0.3,
		},
	}
	cfg.Faults = faults
	if chanKind == "signal" {
		cfg.Tags = 10
		cfg.Workload.ArrivalRate = 8
		cfg.Workload.Duration = time.Second
		cfg.NewChannel = func(r *ancrfid.RNG) ancrfid.Channel {
			return ancrfid.NewSignalChannel(ancrfid.SignalChannelConfig{
				NoiseSigma: 0.03, MaxCancel: 2,
			}, r)
		}
	}
	return cfg
}

// auditChaos asserts the hard inventory invariants on every run of a chaos
// campaign.
func auditChaos(t *testing.T, res ancrfid.ChaosResult, wantCrashes bool) {
	t.Helper()
	crashes := 0
	faults := 0
	for i := range res.Runs {
		rep := &res.Runs[i]
		if rep.Phantoms != 0 {
			t.Errorf("run %d: %d phantom IDs identified", i, rep.Phantoms)
		}
		if rep.DupIdents != 0 {
			t.Errorf("run %d: %d duplicate identifications", i, rep.DupIdents)
		}
		if !rep.Accounted() {
			t.Errorf("run %d: accounting broken: admitted %d != identified %d + departed-unread %d + still-active %d",
				i, rep.Admitted, rep.Identified, rep.DepartedUnread, rep.ActiveUnread)
		}
		if rep.Admitted == 0 || rep.Identified == 0 {
			t.Errorf("run %d: degenerate run (admitted %d, identified %d)", i, rep.Admitted, rep.Identified)
		}
		faults += rep.FaultsInjected
		crashes += rep.Crashes
	}
	// Some protocol/shape pairs dodge individual runs (a protocol that
	// never acknowledges sees no ACK loss; bursts need a busy slot to
	// land on), so the exercised-at-all check is campaign-level.
	if faults == 0 {
		t.Error("campaign injected no faults; the shape is not exercising anything")
	}
	if wantCrashes && crashes == 0 {
		t.Error("crash shape produced no crash-restarts")
	}
}

// chaosGolden pins the exact output of every chaos-matrix cell: one SHA-256
// per cell over the workers=1 run reports and the byte-exact JSONL trace.
// The invariants and the workers=1-vs-8 equality alone would let a change
// to Admit, Revoke, Snapshot or Restore shift results unnoticed.
//
// Regenerate (only when intentionally changing observable behaviour) with:
//
//	UPDATE_GOLDEN=1 go test -run TestChaosMatrix .
const chaosGolden = "testdata/chaos.golden"

// chaosHash hashes everything observable about a sequential chaos campaign.
func chaosHash(runs []ancrfid.ChaosReport, trace []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%#v\n", runs)
	h.Write(trace)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestChaosMatrix is the acceptance sweep: every protocol x both channels x
// all fault shapes, each at workers 1 and 8. Each cell must satisfy the
// inventory invariants, the parallel campaign must be bit-identical to the
// sequential one, and the sequential one must match chaosGolden.
func TestChaosMatrix(t *testing.T) {
	update := os.Getenv("UPDATE_GOLDEN") != ""
	var want map[string]string
	var mu sync.Mutex
	got := make(map[string]string)
	if update {
		t.Cleanup(func() {
			keys := make([]string, 0, len(got))
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var sb strings.Builder
			sb.WriteString("# Hashes of workers=1 ChaosResult.Runs + JSONL trace per\n")
			sb.WriteString("# (protocol, channel, shape) cell. See chaos_test.go.\n")
			for _, k := range keys {
				fmt.Fprintf(&sb, "%s %s\n", k, got[k])
			}
			if err := os.WriteFile(chaosGolden, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s with %d cells", chaosGolden, len(keys))
		})
	} else {
		want = readGoldenHashes(t, chaosGolden)
	}
	for _, proto := range allProtocols {
		for _, chanKind := range []string{"abstract", "signal"} {
			for _, shape := range chaosShapes {
				t.Run(fmt.Sprintf("%s/%s/%s", proto, chanKind, shape.name), func(t *testing.T) {
					t.Parallel()
					p, err := ancrfid.ByName(proto)
					if err != nil {
						t.Fatal(err)
					}
					sp, ok := ancrfid.AsSession(p)
					if !ok {
						t.Fatalf("%s does not implement SessionProtocol", proto)
					}

					var trace bytes.Buffer
					jsonl := ancrfid.NewJSONLTracer(&trace)
					seqCfg := chaosConfig(chanKind, shape.faults, 1)
					seqCfg.Tracer = jsonl
					seq, err := ancrfid.RunChaos(sp, seqCfg)
					if err != nil {
						t.Fatalf("sequential campaign: %v", err)
					}
					if err := jsonl.Err(); err != nil {
						t.Fatalf("trace write: %v", err)
					}
					auditChaos(t, seq, shape.faults.CrashEvery > 0)
					key := fmt.Sprintf("%s/%s/%s", proto, chanKind, shape.name)
					hash := chaosHash(seq.Runs, trace.Bytes())
					if update {
						mu.Lock()
						got[key] = hash
						mu.Unlock()
					} else if want[key] != hash {
						t.Errorf("output drifted from %s:\n got %s\nwant %q", chaosGolden, hash, want[key])
					}

					par, err := ancrfid.RunChaos(sp, chaosConfig(chanKind, shape.faults, 8))
					if err != nil {
						t.Fatalf("parallel campaign: %v", err)
					}
					if !reflect.DeepEqual(seq.Runs, par.Runs) {
						t.Fatal("workers=8 chaos campaign differs from workers=1")
					}
				})
			}
		}
	}
}

// TestChaosCrashRestartAccounting drives a crash-heavy inventory and checks
// that every restart resumes from a mid-inventory checkpoint with the exact
// accounting intact: identifications rolled past a crash are re-earned, not
// double-counted, and the final books balance.
func TestChaosCrashRestartAccounting(t *testing.T) {
	sp, _ := ancrfid.AsSession(ancrfid.NewFCAT(2))
	cfg := chaosConfig("abstract", ancrfid.FaultConfig{
		AckLoss:    0.15,
		CrashEvery: 64, // raised to >= 2x checkpoint cadence by the harness
	}, 1)
	cfg.Runs = 3
	cfg.Workload.Duration = 2 * time.Second

	res, err := ancrfid.RunChaos(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, res, true)
	for i := range res.Runs {
		rep := &res.Runs[i]
		if rep.Crashes < 2 {
			t.Errorf("run %d: only %d crashes; the schedule should hit several", i, rep.Crashes)
		}
		if rep.Checkpoints <= rep.Crashes {
			t.Errorf("run %d: %d checkpoints for %d crashes; marks must outpace crashes for net progress",
				i, rep.Checkpoints, rep.Crashes)
		}
		// Crash replays re-execute slots, so wall work strictly exceeds the
		// surviving timeline's slot count.
		if rep.WallSteps == 0 {
			t.Errorf("run %d: no wall steps recorded", i)
		}
	}
}

// TestChaosDisabledMatchesDynamic: with a zero FaultConfig the chaos driver
// is just another dynamic driver — same scripts, same invariants — and must
// identify tags without injecting anything.
func TestChaosDisabledMatchesDynamic(t *testing.T) {
	sp, _ := ancrfid.AsSession(ancrfid.NewFCAT(2))
	cfg := chaosConfig("abstract", ancrfid.FaultConfig{}, 1)
	res, err := ancrfid.RunChaos(sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Runs {
		rep := &res.Runs[i]
		if rep.FaultsInjected != 0 || rep.Quarantined != 0 || rep.Crashes != 0 {
			t.Errorf("run %d: fault-free chaos run reported fault activity: %d faults, %d quarantined, %d crashes",
				i, rep.FaultsInjected, rep.Quarantined, rep.Crashes)
		}
		if rep.Phantoms != 0 || rep.DupIdents != 0 || !rep.Accounted() {
			t.Errorf("run %d: invariants violated without faults", i)
		}
		if rep.Identified == 0 {
			t.Errorf("run %d: identified nothing", i)
		}
	}
}

// TestChaosSevereDegradation: cranking severity up must degrade throughput,
// never break invariants — the graceful-degradation promise.
func TestChaosSevereDegradation(t *testing.T) {
	sp, _ := ancrfid.AsSession(ancrfid.NewSCAT(2))
	mild := chaosConfig("abstract", ancrfid.FaultConfig{AckLoss: 0.05}, 1)
	harsh := chaosConfig("abstract", ancrfid.FaultConfig{
		AckLoss:          0.4,
		Burst:            ancrfid.FaultBurstConfig{Duty: 0.3, MeanBad: 6},
		MuteProb:         0.1,
		CorruptSingleton: 0.2,
		CorruptDecode:    0.4,
	}, 1)

	mres, err := ancrfid.RunChaos(sp, mild)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := ancrfid.RunChaos(sp, harsh)
	if err != nil {
		t.Fatal(err)
	}
	auditChaos(t, mres, false)
	auditChaos(t, hres, false)
	if hres.Identified.Mean >= mres.Identified.Mean {
		t.Errorf("harsh faults identified %.1f tags on average, mild %.1f; severity must cost throughput",
			hres.Identified.Mean, mres.Identified.Mean)
	}
	if hres.Quarantined.Mean == 0 {
		t.Error("harsh corruption produced no quarantines; the CRC defenses never fired")
	}
}
