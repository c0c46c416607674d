package main

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ancrfid/ancrfid/internal/obs"
	"github.com/ancrfid/ancrfid/internal/rng"
	"github.com/ancrfid/ancrfid/internal/server"
	"github.com/ancrfid/ancrfid/internal/tagid"
)

// serverSpec is the server phase of a workload. Every round replays the
// same requests against a fresh in-process server: a churn phase of young
// sessions in the rfidsim -loadgen shape, then a conveyor phase of
// long-lived sessions, then Kill, a timed recovery and an audit. Sessions
// run FCAT-2 on the abstract channel.
type serverSpec struct {
	churnSessions    int
	conveyorSessions int
	conveyorCycles   int // admit, one maximum-size step batch, revoke
}

// The churn sessions take rfidsim -loadgen's defaults: 1000 tags and a
// 2000-step budget. FCAT-2 needs about 1750 slots for 1000 tags, so the
// admit at step 1000 lands while identification runs, and a session stops
// at the first batch that ends with its field empty. A conveyor cycle
// admits more tags than one maximum-size batch can identify (about 1.73
// slots per tag at this scale), so the batch never probes an empty field
// and the revoke takes the unread rest away, as tags leaving a reader.
const (
	sessionTags   = 1000  // initial population of every session
	churnSteps    = 2000  // step budget per churn session
	conveyorAdmit = 40000 // tags admitted per conveyor cycle
)

const (
	// clients is the closed-loop client count: readers wait for each
	// reply, and two matches the two vCPUs of the reference machine.
	clients      = 2
	churnBatch   = 64    // steps per churn step request, as rfidsim -loadgen
	churnAdmit   = 4     // tags a churn session admits halfway, as rfidsim -loadgen
	conveyorStep = 65536 // the server's default MaxStepsPerRequest
	maxRetries   = 5     // refused requests retried per call
)

// serverConfig is the server as cmd/rfidserver deploys it by default:
// fsync on, 8 shards, 128-deep queues, checkpoints every 4096 steps.
func serverConfig(dir string) server.Config {
	return server.Config{Dir: dir, IdleAfter: 10 * time.Minute}
}

// serverInputs are the request bodies of one round, derived from the seed.
type serverInputs struct {
	churnIDs, conveyorIDs   []string
	churnCreate, churnAdd   [][]byte
	conveyorCreate          [][]byte
	conveyorOps             [][][]byte // [session][cycle] admit and revoke body
	admittedChurn           int
	admittedConveyor        int
	stepChurn, stepConveyor []byte
}

func makeServerInputs(s serverSpec, seed uint64) serverInputs {
	r := rng.New(seed ^ 0x5e55)
	create := func(id string, maxSlots int) []byte {
		spec := map[string]any{"protocol": "FCAT-2", "seed": r.Uint64() >> 1, "tags": sessionTags, "max_slots": maxSlots}
		return mustJSON(map[string]any{"id": id, "spec": spec})
	}
	// A long-lived session budgets its slots above its lifetime, as
	// internal/workload does; the automatic budget (200 per tag) would end
	// a conveyor session with ErrNoProgress after a few batches.
	conveyorSlots := s.conveyorCycles*conveyorStep + 200*(sessionTags+s.conveyorCycles*conveyorAdmit) + 10000
	ids := func(n int) []byte {
		pop := tagid.Population(r, n)
		hx := make([]string, n)
		for i, t := range pop {
			hx[i] = hex.EncodeToString(t[:])
		}
		return mustJSON(map[string]any{"ids": hx})
	}
	in := serverInputs{
		admittedChurn:    sessionTags + churnAdmit,
		admittedConveyor: sessionTags + s.conveyorCycles*conveyorAdmit,
		stepChurn:        mustJSON(map[string]int{"steps": churnBatch}),
		stepConveyor:     mustJSON(map[string]int{"steps": conveyorStep}),
	}
	for i := 0; i < s.churnSessions; i++ {
		id := fmt.Sprintf("churn-%04d", i)
		in.churnIDs = append(in.churnIDs, id)
		in.churnCreate = append(in.churnCreate, create(id, 0))
		in.churnAdd = append(in.churnAdd, ids(churnAdmit))
	}
	for i := 0; i < s.conveyorSessions; i++ {
		id := fmt.Sprintf("conveyor-%02d", i)
		in.conveyorIDs = append(in.conveyorIDs, id)
		in.conveyorCreate = append(in.conveyorCreate, create(id, conveyorSlots))
		ops := make([][]byte, s.conveyorCycles)
		for c := range ops {
			ops[c] = ids(conveyorAdmit)
		}
		in.conveyorOps = append(in.conveyorOps, ops)
	}
	return in
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of strings and numbers reach here
	}
	return b
}

// serverEnv is one in-process server listening on loopback.
type serverEnv struct {
	dir    string
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
}

func startServer(dir string) (*serverEnv, error) {
	srv, err := server.New(serverConfig(dir))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Kill()
		return nil, err
	}
	e := &serverEnv{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// kill closes the listener and every connection, waits for Serve to
// return, then hard-stops the server without checkpointing.
func (e *serverEnv) kill() {
	e.hs.Close()
	<-e.served
	e.srv.Kill()
}

// client is one closed-loop client: it sends its next request only after
// the previous reply.
type client struct {
	http *http.Client
	base string
	rec  *recorder
	t    *tally

	stepMS, durableMS []float64
	steps, idleSteps  int64
}

var errRequest = errors.New("request failed")

// newHTTPClient keeps one idle connection per closed-loop client.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}, Timeout: 30 * time.Second}
}

// call sends one request and checks its status, and appends its latency in
// milliseconds to lat unless lat is nil. A refused request (429 or 503)
// counts as a failed operation and is retried after Retry-After.
func (c *client) call(method, path string, body []byte, want int, lat *[]float64) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		c.rec.newTrace()
		c.rec.open(layerRequest)
		start := time.Now()
		status, resp, retry, err := c.send(method, path, body)
		d := time.Since(start)
		c.rec.close()
		if err != nil {
			c.t.fail(1, "%s %s: %v", method, path, err)
			return nil, errRequest
		}
		if (status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable) && attempt < maxRetries {
			c.t.fail(1, "%s %s: refused with HTTP %d", method, path, status)
			time.Sleep(retry)
			continue
		}
		if !c.t.check(status == want, "%s %s: HTTP %d, want %d: %s", method, path, status, want, resp) {
			return nil, errRequest
		}
		if lat != nil {
			*lat = append(*lat, float64(d)/1e6)
		}
		return resp, nil
	}
}

func (c *client) send(method, path string, body []byte) (status int, resp []byte, retry time.Duration, err error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	r, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close()
	retry = time.Second
	if s, convErr := strconv.Atoi(r.Header.Get("Retry-After")); convErr == nil && s > 0 {
		retry = time.Duration(s) * time.Second
	}
	return r.StatusCode, resp, retry, err
}

type stepReply struct {
	Executed int    `json:"executed"`
	Done     bool   `json:"done"`
	Failed   string `json:"failed"`
}

// step runs one step batch. Steps of a batch that ends with the field
// empty count as idle: an upper bound on the empty probes among them.
func (c *client) step(id string, body []byte, lat *[]float64) (stepReply, error) {
	resp, err := c.call(http.MethodPost, "/v1/sessions/"+id+"/step", body, http.StatusOK, lat)
	if err != nil {
		return stepReply{}, err
	}
	var r stepReply
	if err := json.Unmarshal(resp, &r); err != nil {
		c.t.fail(1, "step %s: %v", id, err)
		return r, errRequest
	}
	c.steps += int64(r.Executed)
	if r.Done {
		c.idleSteps += int64(r.Executed)
	}
	if r.Failed != "" {
		c.t.fail(1, "step %s: session failed: %s", id, r.Failed)
		return r, errRequest
	}
	return r, nil
}

// churn drives one young session in the rfidsim -loadgen shape: create,
// 64-step batches, an admit halfway, stop once done after the admit.
func (c *client) churn(in *serverInputs, i int) error {
	id := in.churnIDs[i]
	if _, err := c.call(http.MethodPost, "/v1/sessions", in.churnCreate[i], http.StatusCreated, &c.durableMS); err != nil {
		return err
	}
	admitted := false
	for total := 0; total < churnSteps; {
		if !admitted && total >= churnSteps/2 {
			if _, err := c.call(http.MethodPost, "/v1/sessions/"+id+"/admit", in.churnAdd[i], http.StatusOK, &c.durableMS); err != nil {
				return err
			}
			admitted = true
		}
		r, err := c.step(id, in.stepChurn, &c.stepMS)
		if err != nil {
			return err
		}
		total += r.Executed
		if r.Done && admitted {
			return nil
		}
	}
	return nil
}

// conveyorCycle admits a batch of tags, runs one maximum-size step batch
// and revokes the batch again. The batch's latency joins no step
// percentile: those are the churn's 64-step requests.
func (c *client) conveyorCycle(in *serverInputs, i, cycle int) error {
	id := in.conveyorIDs[i]
	ops := in.conveyorOps[i][cycle]
	if _, err := c.call(http.MethodPost, "/v1/sessions/"+id+"/admit", ops, http.StatusOK, &c.durableMS); err != nil {
		return err
	}
	if _, err := c.step(id, in.stepConveyor, nil); err != nil {
		return err
	}
	_, err := c.call(http.MethodPost, "/v1/sessions/"+id+"/revoke", ops, http.StatusOK, &c.durableMS)
	return err
}

// serverRound is the outcome of one server round.
type serverRound struct {
	loadTime  time.Duration // churn and conveyor phases
	steps     int64
	idleSteps int64 // steps of batches that ended with the field empty
	stepMS    []float64
	durableMS []float64
	allocMB   float64
	ckptKB    float64       // checkpoint bytes on disk per session at kill time, KiB
	recovery  time.Duration // server.New on the killed server's directory

	// Traced rounds only: the killed server's registry counters, the
	// store scan and the steps recovery replayed.
	requests, rejected    int64
	ckptWrites, ckptBytes int64
	scan                  time.Duration
	replayedSteps         int64
}

// runServerRound drives one round against e, which it kills, and leaves
// nothing running. A non-nil sl traces the round's layers.
func runServerRound(e *serverEnv, s serverSpec, in *serverInputs, sl *spanLog, t *tally) (serverRound, error) {
	var out serverRound
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = &client{http: hc, base: e.base, t: t}
		if sl != nil {
			cs[i].rec = sl.recorder(i + 1)
		}
	}

	// Churn: both clients pull session indices until none are left.
	var next atomic.Int64
	parallel(cs, func(_ int, c *client) {
		for {
			i := int(next.Add(1)) - 1
			if i >= s.churnSessions {
				return
			}
			if err := c.churn(in, i); err != nil {
				t.logf("churn session %s abandoned", in.churnIDs[i])
			}
		}
	})
	// Conveyor: client j owns sessions j, j+clients, ...
	parallel(cs, func(j int, c *client) {
		var mine []int
		for i := j; i < s.conveyorSessions; i += clients {
			if _, err := c.call(http.MethodPost, "/v1/sessions", in.conveyorCreate[i], http.StatusCreated, &c.durableMS); err == nil {
				mine = append(mine, i)
			}
		}
		for cycle := 0; cycle < s.conveyorCycles; cycle++ {
			for _, i := range mine {
				if err := c.conveyorCycle(in, i, cycle); err != nil {
					t.logf("conveyor session %s cycle %d abandoned", in.conveyorIDs[i], cycle)
				}
			}
		}
	})
	out.loadTime = time.Since(start)
	for _, c := range cs {
		out.steps += c.steps
		out.idleSteps += c.idleSteps
		out.stepMS = append(out.stepMS, c.stepMS...)
		out.durableMS = append(out.durableMS, c.durableMS...)
	}

	e.kill()
	runtime.ReadMemStats(&m1)
	out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	if sl != nil {
		reg := e.srv.Registry()
		out.requests = reg.Value(obs.MetricServerRequests)
		out.rejected = reg.Value(obs.MetricServerRejectBackpressure) + reg.Value(obs.MetricServerRejectRatelimit) + reg.Value(obs.MetricServerRejectDraining)
		out.ckptWrites = reg.Value(obs.MetricServerCheckpointWrites)
		out.ckptBytes = reg.Value(obs.MetricServerCheckpointBytes)
	}
	sessions := s.churnSessions + s.conveyorSessions
	bytesOnDisk, err := checkpointBytes(e.dir)
	if err != nil {
		return out, err
	}
	out.ckptKB = float64(bytesOnDisk) / 1024 / float64(sessions)

	var rec *recorder
	if sl != nil {
		rec = sl.recorder(0)
		rec.newTrace()
	}
	runtime.GC() // recovery starts from a clean heap, as after a restart
	rec.open(layerServerNew)
	t0 := time.Now()
	srv, err := server.New(serverConfig(e.dir))
	out.recovery = time.Since(t0)
	rec.close()
	if err != nil {
		return out, fmt.Errorf("recovery: %w", err)
	}
	reg := srv.Registry()
	t.check(reg.Value(obs.MetricServerRecoveryRecovered) == int64(sessions) && reg.Value(obs.MetricServerRecoveryQuarantined) == 0,
		"recovery: %d of %d sessions recovered, %d quarantined", reg.Value(obs.MetricServerRecoveryRecovered), sessions, reg.Value(obs.MetricServerRecoveryQuarantined))
	out.replayedSteps = reg.Value(obs.MetricServerRecoveryReplayedSteps)
	h := srv.Handler()
	for _, id := range in.churnIDs {
		auditSession(h, id, in.admittedChurn, t)
	}
	for _, id := range in.conveyorIDs {
		auditSession(h, id, in.admittedConveyor, t)
	}
	srv.Kill()

	if sl != nil {
		if err := storeLayers(e.dir, rec, &out, t); err != nil {
			return out, err
		}
	}
	// Removing the directory now, and writing the removal back, keeps the
	// deletes of one round from loading the disk under the next.
	err = os.RemoveAll(e.dir)
	syscall.Sync()
	return out, err
}

// storeLayers calls the checkpoint store's layers on the directory the
// killed server left behind: the recovery scan, the encoder on every
// record, and a durable rewrite of every record into a sibling directory.
func storeLayers(dir string, rec *recorder, out *serverRound, t *tally) error {
	st, err := server.OpenStore(dir, nil, false)
	if err != nil {
		return err
	}
	rec.open(layerScan)
	scan, err := st.Recover()
	out.scan = rec.close()
	if err != nil {
		return err
	}
	t.check(len(scan.Quarantined) == 0, "store scan quarantined %d files", len(scan.Quarantined))
	w, err := server.OpenStore(dir+"-rewrite", nil, false)
	if err != nil {
		return err
	}
	for _, r := range scan.Records {
		rec.open(layerEncode)
		_, err := server.EncodeCheckpoint(r)
		rec.close()
		t.check(err == nil, "encode %s: %v", r.ID, err)
		rec.open(layerWrite)
		_, err = w.Write(r)
		rec.keep(layerWrite, rec.close())
		t.check(err == nil, "write %s: %v", r.ID, err)
	}
	return os.RemoveAll(dir + "-rewrite")
}

// sessionStatus is the part of a session's status the audit reads.
type sessionStatus struct {
	Admitted   int `json:"admitted"`
	Identified int `json:"identified"`
	Departed   int `json:"departed_unread"`
	Active     int `json:"still_active"`
	DupIdents  int `json:"dup_idents"`
	Phantoms   int `json:"phantoms"`
}

// accountingError is the rfidsim -loadgen-verify audit of one recovered
// session: every acknowledged admission survived, admitted == identified
// + departed-unread + still-active, and no tag was identified twice.
func accountingError(st sessionStatus, idents []string, wantAdmitted int) error {
	if st.Admitted != wantAdmitted {
		return fmt.Errorf("%d tags admitted, %d acknowledged", st.Admitted, wantAdmitted)
	}
	if st.Admitted != st.Identified+st.Departed+st.Active {
		return fmt.Errorf("accounting broken: %d admitted != %d identified + %d departed + %d active", st.Admitted, st.Identified, st.Departed, st.Active)
	}
	if st.DupIdents != 0 || st.Phantoms != 0 {
		return fmt.Errorf("%d duplicate idents, %d phantoms", st.DupIdents, st.Phantoms)
	}
	seen := make(map[string]bool, len(idents))
	for _, id := range idents {
		if seen[id] {
			return fmt.Errorf("ident %s listed twice", id)
		}
		seen[id] = true
	}
	if len(idents) != st.Identified {
		return fmt.Errorf("%d idents listed, status says %d", len(idents), st.Identified)
	}
	return nil
}

func auditSession(h http.Handler, id string, wantAdmitted int, t *tally) {
	var st sessionStatus
	var il struct {
		Idents []string `json:"idents"`
	}
	err := getJSON(h, "/v1/sessions/"+id, &st)
	if err == nil {
		err = getJSON(h, "/v1/sessions/"+id+"/idents", &il)
	}
	if err == nil {
		err = accountingError(st, il.Idents, wantAdmitted)
	}
	t.check(err == nil, "audit %s: %v", id, err)
}

// getJSON serves one GET through the recovered server's handler.
func getJSON(h http.Handler, path string, v any) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if w.Code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", path, w.Code, w.Body.Bytes())
	}
	return json.Unmarshal(w.Body.Bytes(), v)
}

func checkpointBytes(dir string) (int64, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// parallel runs fn once per client on its own goroutine and waits.
func parallel(cs []*client, fn func(int, *client)) {
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			fn(i, c)
		}(i, c)
	}
	wg.Wait()
}
