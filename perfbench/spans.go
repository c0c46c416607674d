package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// layer names one boundary the traced run times from the benchmark's own
// code. Self time — a span's duration minus what its child spans cover — is
// accumulated per layer as spans close, so the per-layer table covers every
// span even when only the first maxSpans are kept for the trace file.
type layer int

const (
	layerRound     layer = iota // one sim.Run campaign call
	layerRun                    // one Monte-Carlo run, RunStart to RunEnd
	layerObserve                // Channel.Observe
	layerMix                    // Mixed.Subtract and Mixed.Decode
	layerEmit                   // the library tracer behind the counting tracer
	layerEstimate               // estimate.Exact replayed on a frame
	layerRequest                // one HTTP request, client side
	layerServerNew              // server.New on a killed server's directory
	layerScan                   // Store.Recover
	layerEncode                 // server.EncodeCheckpoint
	layerWrite                  // Store.Write with fsync
	numLayers
)

var layerNames = [numLayers]string{
	"campaign.round", "fcat.run", "channel.observe", "channel.mix", "obs.emit",
	"estimate.exact", "http.request", "server.new", "store.recover",
	"ckpt.encode", "store.write",
}

// maxSpans bounds the spans kept in memory for the trace file.
const maxSpans = 100_000

// spanLog collects the spans of one traced run.
type spanLog struct {
	base   time.Time
	ids    atomic.Uint64
	budget atomic.Int64

	mu        sync.Mutex
	recorders []*recorder
}

func newSpanLog() *spanLog {
	l := &spanLog{base: time.Now()}
	l.budget.Store(maxSpans)
	return l
}

// span is one closed interval at a layer boundary. Spans of one
// Monte-Carlo run or one request share trace.
type span struct {
	layer      layer
	id, parent uint64
	trace      uint64
	tid        int
	start, end int64 // ns since the log's base
}

type openSpan struct {
	layer layer
	id    uint64
	start int64
	child int64 // ns covered by closed children
}

// recorder times spans on one goroutine. A nil *recorder records nothing,
// so untraced code paths call it freely.
type recorder struct {
	log   *spanLog
	tid   int
	trace uint64
	stack []openSpan
	spans []span

	self [numLayers]int64   // ns
	durs [numLayers][]int64 // per-call durations where a percentile is reported
}

// recorder returns a new recorder for one goroutine (thread lane tid).
func (l *spanLog) recorder(tid int) *recorder {
	r := &recorder{log: l, tid: tid}
	l.mu.Lock()
	l.recorders = append(l.recorders, r)
	l.mu.Unlock()
	return r
}

func (r *recorder) now() int64 { return int64(time.Since(r.log.base)) }

// newTrace starts a new trace ID for the spans that follow.
func (r *recorder) newTrace() {
	if r != nil {
		r.trace = r.log.ids.Add(1)
	}
}

func (r *recorder) open(l layer) {
	if r == nil {
		return
	}
	r.stack = append(r.stack, openSpan{layer: l, id: r.log.ids.Add(1), start: r.now()})
}

// close ends the innermost open span and returns its duration.
func (r *recorder) close() time.Duration {
	if r == nil {
		return 0
	}
	end := r.now()
	n := len(r.stack) - 1
	o := r.stack[n]
	r.stack = r.stack[:n]
	d := end - o.start
	r.self[o.layer] += d - o.child
	var parent uint64
	if n > 0 {
		r.stack[n-1].child += d
		parent = r.stack[n-1].id
	}
	if r.log.budget.Add(-1) >= 0 {
		r.spans = append(r.spans, span{layer: o.layer, id: o.id, parent: parent, trace: r.trace, tid: r.tid, start: o.start, end: end})
	}
	return time.Duration(d)
}

// keep records the duration of every call at layer l for percentiles.
func (r *recorder) keep(l layer, d time.Duration) {
	if r != nil {
		r.durs[l] = append(r.durs[l], int64(d))
	}
}

// totals sums self time and kept durations over every recorder of the log.
func (l *spanLog) totals() (self [numLayers]time.Duration, durs [numLayers][]float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.recorders {
		for i := range self {
			self[i] += time.Duration(r.self[i])
			for _, d := range r.durs[i] {
				durs[i] = append(durs[i], float64(d))
			}
		}
	}
	return self, durs
}

// writeChrome writes the kept spans as a Chrome trace-event JSON array —
// the format rfidsim -spans emits, so one viewer (Perfetto,
// chrome://tracing) opens both. Timestamps are host microseconds since the
// traced run began.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	var all []span
	for _, r := range l.recorders {
		all = append(all, r.spans...)
	}
	l.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	b := make([]byte, 0, 256)
	b = append(b, "[\n"...)
	for i, s := range all {
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, `{"name":"`...)
		b = append(b, layerNames[s.layer]...)
		b = append(b, `","ph":"X","pid":1,"tid":`...)
		b = strconv.AppendInt(b, int64(s.tid), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendFloat(b, float64(s.start)/1e3, 'f', 3, 64)
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, float64(s.end-s.start)/1e3, 'f', 3, 64)
		b = append(b, `,"args":{"id":`...)
		b = strconv.AppendUint(b, s.id, 10)
		b = append(b, `,"parent":`...)
		b = strconv.AppendUint(b, s.parent, 10)
		b = append(b, `,"trace":`...)
		b = strconv.AppendUint(b, s.trace, 10)
		b = append(b, "}}"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
		b = b[:0]
	}
	if _, err := w.WriteString("\n]\n"); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
