// Command perfbench is the repository benchmark. It runs one named
// workload for a given time from a seed, checks every output it produces,
// and prints each metric by name with its unit, then one JSON result line:
//
//	bash perfbench/run.sh --workload campaign-fcat --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it times the calls into each layer from its own code, keeps the
// spans in memory, writes them as Chrome trace-event JSON under --out and
// reports the per-layer metrics. See README.md for every metric and the
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one named input set. Every workload runs a campaign phase
// and a server phase, so every end-to-end metric is measured on it; the
// phases' sizes and the share of time they get decide which layers the
// workload stresses.
type workload struct {
	name          string
	campaign      campaignSpec
	server        serverSpec
	campaignShare float64 // share of --seconds given to the campaign phase
}

var workloads = []workload{
	{
		// A Table I grid point: record store, active set and estimator
		// dominate the abstract-channel campaign.
		name:          "campaign-fcat",
		campaign:      campaignSpec{channel: "abstract", tags: 20000, runs: 4},
		server:        serverSpec{churnSessions: 32, conveyorSessions: 1, conveyorCycles: 2},
		campaignShare: 0.6,
	},
	{
		// Waveform synthesis, gain estimation and cancellation dominate;
		// a record-store or estimator change should leave it unmoved.
		name:          "campaign-signal",
		campaign:      campaignSpec{channel: "signal", tags: 200, runs: 10},
		server:        serverSpec{churnSessions: 32, conveyorSessions: 1, conveyorCycles: 2},
		campaignShare: 0.6,
	},
	{
		// The deployed server under a closed loop of two clients: HTTP and
		// JSON, shard queues, eager fsync'd writes, replay on recovery.
		name:          "server",
		campaign:      campaignSpec{channel: "abstract", tags: 2000, runs: 4},
		server:        serverSpec{churnSessions: 64, conveyorSessions: 4, conveyorCycles: 2},
		campaignShare: 0.1,
	},
}

const (
	setupReps = 9 // set-ups per run; setup_s is their median
	minRounds = 2 // campaign rounds always run; read_tags_per_s covers exactly these
)

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: campaign-fcat, campaign-signal or server")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 15, "measured time")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for server data and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runBench(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runBench sets up, measures and reports one workload.
func runBench(w workload, o options, stdout, stderr io.Writer) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	// Write back what earlier work left dirty, the build above all, so
	// the first fsync'd requests do not wait for it.
	syscall.Sync()
	work, err := os.MkdirTemp(o.out, "perfbench-data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	t := &tally{w: stderr}
	var env *serverEnv // the server the next server round runs on
	defer func() {
		if env != nil {
			env.kill()
		}
	}()

	// Set-up: derive the inputs from the seed, warm the campaign path with
	// one round, start the server on a fresh directory and serve one
	// request. It is repeated and the last one is kept.
	var (
		setups []float64
		in     serverInputs
	)
	for i := 0; i < setupReps; i++ {
		if prev := env; prev != nil {
			env = nil
			prev.kill()
			if err := os.RemoveAll(prev.dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		in = makeServerInputs(w.server, o.seed)
		runCampaign(w.campaign, -1, w.campaign.simConfig(o.seed, -1), t)
		env, err = startServer(filepath.Join(work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		if err := warmRequest(env, t); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var sl *spanLog
	if o.trace {
		sl = newSpanLog()
	}
	// Measured phase: campaign rounds and server rounds interleave over
	// the whole run, each phase taking its share of the time, so both see
	// the same spread of machine conditions. A traced run pairs every
	// untraced campaign round with a traced round on the same seed.
	var (
		rounds, traced []campaignRound
		overhead       []float64
		counts         campaignCounts
		srounds        []serverRound
		crec           *recorder
		campaignTime   time.Duration
	)
	if sl != nil {
		crec = sl.recorder(0)
	}
	total := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for {
		elapsed := time.Since(start)
		if elapsed >= total && len(rounds) >= minRounds && len(srounds) > 0 {
			break
		}
		if len(rounds) < minRounds || (len(srounds) > 0 && campaignTime.Seconds() < w.campaignShare*elapsed.Seconds()) {
			k := len(rounds)
			runtime.GC() // no round pays for the garbage of the one before
			t0 := time.Now()
			cfg := w.campaign.simConfig(o.seed, k)
			if sl != nil {
				cfg = explicitChannel(cfg)
			}
			r := runCampaign(w.campaign, k, cfg, t)
			rounds = append(rounds, r)
			if sl != nil {
				runtime.GC()
				crec.newTrace()
				crec.open(layerRound)
				tr := runCampaign(w.campaign, k, tracedConfig(cfg, crec, &counts, t), t)
				crec.close()
				traced = append(traced, tr)
				sameRuns(k, r.runs, tr.runs, t)
				overhead = append(overhead, (tr.elapsed.Seconds()-r.elapsed.Seconds())/r.elapsed.Seconds())
			}
			campaignTime += time.Since(t0)
			continue
		}
		// A server round runs on a fresh server; the first one on the
		// server the set-up started.
		if env == nil {
			env, err = startServer(filepath.Join(work, fmt.Sprintf("round-%d", len(srounds))))
			if err != nil {
				return nil, err
			}
		}
		cur := env
		env = nil // runServerRound kills it
		runtime.GC()
		r, err := runServerRound(cur, w.server, &in, sl, t)
		if err != nil {
			return nil, err
		}
		srounds = append(srounds, r)
	}

	res := &result{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.fail(1, "metric %s is %v", name, v)
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if sl == nil {
		endToEnd(put, setups, rounds, srounds)
		if w.campaign.channel == "abstract" && w.campaign.tags == 20000 {
			fmt.Fprintln(stdout, tableILine(res.Metrics["read_tags_per_s"].Value))
		}
	} else {
		perLayer(put, sl, traced, srounds, counts, overhead)
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		if err := sl.writeChrome(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	res.Attempted, res.Failed = t.attempted.Load(), t.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "workload %s seed %d: %d campaign rounds, %d server rounds, %d operations, %d failed\n",
		w.name, o.seed, len(rounds), len(srounds), res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-26s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// warmRequest creates, steps and deletes one session on a new server.
func warmRequest(e *serverEnv, t *tally) error {
	c := &client{http: newHTTPClient(), base: e.base, t: t}
	defer c.http.CloseIdleConnections()
	body := mustJSON(map[string]any{"id": "warm", "spec": map[string]any{"protocol": "FCAT-2", "seed": 1, "tags": 16}})
	if _, err := c.call(http.MethodPost, "/v1/sessions", body, http.StatusCreated, nil); err != nil {
		return errors.New("warm-up create failed")
	}
	if _, err := c.step("warm", mustJSON(map[string]int{"steps": churnBatch}), nil); err != nil {
		return errors.New("warm-up step failed")
	}
	if _, err := c.call(http.MethodDelete, "/v1/sessions/warm", nil, http.StatusNoContent, nil); err != nil {
		return errors.New("warm-up delete failed")
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(put func(string, float64, string), setups []float64, rounds []campaignRound, srounds []serverRound) {
	put("setup_s", median(setups), "s")

	var rate, calloc []float64
	var tp float64
	var n int
	for k, r := range rounds {
		rate = append(rate, float64(r.identified())/r.elapsed.Seconds())
		calloc = append(calloc, r.allocMB)
		if k < minRounds {
			for _, m := range r.runs {
				tp += m.Throughput()
				n++
			}
		}
	}
	put("host_tags_per_s", median(rate), "tags/s")
	put("read_tags_per_s", tp/float64(n), "tags/s")

	// Latency percentiles are taken per round and their median reported:
	// the disk's fsync latency drifts over seconds, and a median over rounds
	// resists a few rounds that met a slow disk better than pooled samples.
	var steps, salloc, ckpt, rec, p50, p99, dur []float64
	for _, r := range srounds {
		steps = append(steps, float64(r.steps)/r.loadTime.Seconds())
		salloc = append(salloc, r.allocMB)
		ckpt = append(ckpt, r.ckptKB)
		rec = append(rec, r.recovery.Seconds())
		p50 = append(p50, percentile(r.stepMS, 0.50))
		p99 = append(p99, percentile(r.stepMS, 0.99))
		dur = append(dur, percentile(r.durableMS, 0.50))
	}
	put("alloc_mb", median(calloc)+median(salloc), "MB")
	put("steps_per_s", median(steps), "steps/s")
	put("step_p50_ms", median(p50), "ms")
	put("step_p99_ms", median(p99), "ms")
	put("durable_p50_ms", median(dur), "ms")
	put("recovery_s", median(rec), "s")
	put("ckpt_kb_per_session", median(ckpt), "KiB")
}

// perLayer computes the per-layer metrics of a traced run. Counts and
// times are per campaign round or per server round, so runs of different
// lengths compare.
func perLayer(put func(string, float64, string), sl *spanLog, traced []campaignRound, srounds []serverRound, n campaignCounts, overhead []float64) {
	self, durs := sl.totals()
	cr := float64(len(traced))
	sr := float64(len(srounds))
	put("channel.observe_calls", float64(n.observe)/cr, "count")
	put("channel.observe_s", self[layerObserve].Seconds()/cr, "s")
	put("channel.collision_frac", ratio(n.collisions, n.observe), "ratio")
	put("channel.subtract_calls", float64(n.subtract)/cr, "count")
	put("channel.decode_calls", float64(n.decode)/cr, "count")
	put("channel.decode_ok_frac", ratio(n.decOK, n.decode), "ratio")
	put("channel.mix_s", self[layerMix].Seconds()/cr, "s")
	put("record.created", float64(n.created)/cr, "count")
	put("record.resolved", float64(n.resolved)/cr, "count")
	put("record.resolve_frac", ratio(n.resolved, n.created), "ratio")
	put("record.cascade_steps", float64(n.cascade)/cr, "count")
	put("estimate.calls", float64(n.estimates)/cr, "count")
	put("estimate.busy_s", self[layerEstimate].Seconds()/cr, "s")
	put("fcat.self_s", self[layerRun].Seconds()/cr, "s")
	put("fcat.slots", float64(n.slots)/cr, "count")
	put("fcat.tx_per_tag", ratio(n.tx, n.tags), "count")
	put("obs.emit_s", self[layerEmit].Seconds()/cr, "s")
	put("trace.overhead_frac", median(overhead), "ratio")

	var requests, rejected, writes, wbytes, scan, replay, replayed, idle []float64
	for _, r := range srounds {
		idle = append(idle, float64(r.idleSteps)/float64(r.steps))
		requests = append(requests, float64(r.requests))
		rejected = append(rejected, float64(r.rejected))
		writes = append(writes, float64(r.ckptWrites))
		wbytes = append(wbytes, float64(r.ckptBytes))
		scan = append(scan, r.scan.Seconds())
		replay = append(replay, r.recovery.Seconds()-r.scan.Seconds())
		replayed = append(replayed, float64(r.replayedSteps))
	}
	put("server.requests", median(requests), "count")
	put("server.rejected", median(rejected), "count")
	put("server.ckpt_writes", median(writes), "count")
	put("server.ckpt_bytes", median(wbytes), "B")
	put("server.ckpt_encode_s", self[layerEncode].Seconds()/sr, "s")
	put("server.store_write_p50_ms", percentile(durs[layerWrite], 0.50)/1e6, "ms")
	put("server.recover_scan_s", median(scan), "s")
	put("server.replay_s", median(replay), "s")
	put("server.replayed_steps", median(replayed), "count")
	put("server.idle_step_frac", median(idle), "ratio")
}

// tally counts checked operations. Every check is one attempted operation;
// a failed check is logged (the first few) and counted.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	w                 io.Writer
	logged            int
}

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
		t.logf(format, args...)
	}
	return ok
}

// fail records n attempted operations that all failed.
func (t *tally) fail(n int64, format string, args ...any) {
	t.attempted.Add(n)
	t.failed.Add(n)
	t.logf(format, args...)
}

func (t *tally) logf(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.logged < 20 {
		fmt.Fprintf(t.w, "perfbench: "+format+"\n", args...)
	}
	t.logged++
}

func median(v []float64) float64 { return percentile(v, 0.5) }

// percentile is the nearest-rank percentile of v (NaN when empty).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
