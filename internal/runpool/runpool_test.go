package runpool

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/ancrfid/ancrfid/internal/obs"
)

// recorder is a campaign tracer that logs the run index each RunStart
// carries (in Tags). It is deliberately unsynchronized: the pool must
// never call it concurrently, and -race checks that.
type recorder struct {
	obs.NopTracer
	runs []int
}

func (r *recorder) RunStart(ev obs.RunStartEvent) { r.runs = append(r.runs, ev.Tags) }

// progressLog records Progress calls and flags any concurrent invocation;
// each call lingers briefly so unserialized calls would overlap.
type progressLog struct {
	active  atomic.Int32
	overlap atomic.Bool
	order   []int // completion order; written only inside progress
}

func (p *progressLog) progress(i int, _ int, _ error) {
	if p.active.Add(1) > 1 {
		p.overlap.Store(true)
	}
	p.order = append(p.order, i)
	time.Sleep(time.Millisecond)
	p.active.Add(-1)
}

func (p *progressLog) check(t *testing.T, want int) {
	t.Helper()
	if p.overlap.Load() {
		t.Fatal("progress callbacks overlapped")
	}
	if len(p.order) != want {
		t.Fatalf("progress called %d times (%v), want %d", len(p.order), p.order, want)
	}
	seen := make(map[int]bool)
	for _, i := range p.order {
		if seen[i] {
			t.Fatalf("progress reported run %d twice: %v", i, p.order)
		}
		seen[i] = true
	}
}

// waitGoroutines fails unless the goroutine count returns to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReverseCompletionMergesInOrder runs n indices on n workers where
// each index waits until its successor's completion has been reported, so
// runs complete in reverse index order. Results and the replayed trace
// must still come out in index order, and progress must see the
// completion order.
func TestReverseCompletionMergesInOrder(t *testing.T) {
	const n = 8
	before := runtime.NumGoroutine()
	released := make([]chan struct{}, n)
	for i := range released {
		released[i] = make(chan struct{})
	}
	close(released[n-1])
	var rec recorder
	var prog progressLog
	progress := func(i int, v int, err error) {
		prog.progress(i, v, err)
		if i > 0 {
			close(released[i-1])
		}
	}
	out, failed, err := Run(n, n, &rec, func() Func[int] {
		return func(i int, tr obs.Tracer) (int, error) {
			<-released[i]
			if tr == nil || tr == obs.Tracer(&rec) {
				return 0, fmt.Errorf("run %d: parallel traced run not given its own buffer", i)
			}
			tr.RunStart(obs.RunStartEvent{Tags: i})
			return 10 * i, nil
		}
	}, progress)
	if err != nil || failed != -1 {
		t.Fatalf("Run: index %d, %v", failed, err)
	}
	want := make([]int, n)
	wantRuns := make([]int, n)
	wantCompletion := make([]int, n)
	for i := range want {
		want[i], wantRuns[i], wantCompletion[i] = 10*i, i, n-1-i
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("results %v, want %v", out, want)
	}
	if !reflect.DeepEqual(rec.runs, wantRuns) {
		t.Fatalf("trace replayed runs %v, want %v", rec.runs, wantRuns)
	}
	prog.check(t, n)
	if !reflect.DeepEqual(prog.order, wantCompletion) {
		t.Fatalf("progress order %v, want completion order %v", prog.order, wantCompletion)
	}
	waitGoroutines(t, before)
}

// TestFailureWhileHigherRunsInFlight fails index k = 1 while runs 0, 2
// and 3 are still executing; they finish only once the failure has been
// reported. The pool must dispatch nothing new, drain the in-flight runs,
// report k's error with nil results, and replay only the traces up to k.
func TestFailureWhileHigherRunsInFlight(t *testing.T) {
	const (
		n       = 16
		workers = 4
		k       = 1
	)
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	var (
		started  sync.WaitGroup // runs k+1..workers-1 have started
		failSeen = make(chan struct{})
		executed sync.Map
		rec      recorder
		prog     progressLog
	)
	started.Add(workers - 1 - k)
	progress := func(i int, v int, err error) {
		prog.progress(i, v, err)
		if i == k {
			close(failSeen)
		}
	}
	out, failed, err := Run(n, workers, &rec, func() Func[int] {
		return func(i int, tr obs.Tracer) (int, error) {
			executed.Store(i, true)
			tr.RunStart(obs.RunStartEvent{Tags: i})
			switch {
			case i < k:
				<-failSeen
			case i == k:
				started.Wait()
				return 0, fmt.Errorf("run %d: %w", i, boom)
			case i < workers:
				started.Done()
				<-failSeen
			}
			return i, nil
		}
	}, progress)
	if !errors.Is(err, boom) || failed != k {
		t.Fatalf("got index %d, %v; want index %d, boom", failed, err, k)
	}
	if err.Error() != fmt.Sprintf("run %d: boom", k) {
		t.Fatalf("error %q is not run %d's", err, k)
	}
	if out != nil {
		t.Fatalf("failed Run returned results %v", out)
	}
	for i := 0; i < n; i++ {
		_, ran := executed.Load(i)
		if ran != (i < workers) {
			t.Fatalf("run %d executed=%v; only the first %d runs may have been dispatched", i, ran, workers)
		}
	}
	if want := []int{0, 1}; !reflect.DeepEqual(rec.runs, want) {
		t.Fatalf("trace replayed runs %v, want %v", rec.runs, want)
	}
	prog.check(t, workers)
	waitGoroutines(t, before)
}

// TestWorkersClampedToRuns checks newRun is called once per worker and
// that the worker count never exceeds the run count.
func TestWorkersClampedToRuns(t *testing.T) {
	for _, tc := range []struct{ n, workers, want int }{{3, 64, 3}, {10, 4, 4}, {5, 1, 1}, {1, 8, 1}} {
		var workers atomic.Int32
		out, _, err := Run(tc.n, tc.workers, nil, func() Func[int] {
			workers.Add(1)
			return func(i int, _ obs.Tracer) (int, error) { return i, nil }
		}, nil)
		if err != nil || len(out) != tc.n {
			t.Fatalf("n=%d workers=%d: %v, %d results", tc.n, tc.workers, err, len(out))
		}
		if got := int(workers.Load()); got != tc.want {
			t.Fatalf("n=%d workers=%d: %d workers started, want %d", tc.n, tc.workers, got, tc.want)
		}
	}
}

// TestInlineRunUsesLiveTracer checks the single-worker path: runs execute
// on the caller's goroutine in index order against the campaign tracer
// itself, one Func serves every run, and the first failure stops the loop.
func TestInlineRunUsesLiveTracer(t *testing.T) {
	var rec recorder
	var prog progressLog
	boom := errors.New("boom")
	var calls []int
	out, failed, err := Run(6, 1, &rec, func() Func[int] {
		return func(i int, tr obs.Tracer) (int, error) {
			if tr != obs.Tracer(&rec) {
				t.Errorf("run %d: inline run got tracer %T, want the campaign tracer", i, tr)
			}
			calls = append(calls, i)
			if i == 3 {
				return 0, boom
			}
			return i, nil
		}
	}, prog.progress)
	if !errors.Is(err, boom) || failed != 3 || out != nil {
		t.Fatalf("got %v, index %d, results %v", err, failed, out)
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(calls, want) || !reflect.DeepEqual(prog.order, want) {
		t.Fatalf("calls %v, progress %v, want %v", calls, prog.order, want)
	}

	// Untraced parallel runs keep the nil tracer.
	if _, _, err := Run(4, 4, nil, func() Func[int] {
		return func(i int, tr obs.Tracer) (int, error) {
			if tr != nil {
				return 0, fmt.Errorf("run %d: untraced run got tracer %T", i, tr)
			}
			return i, nil
		}
	}, nil); err != nil {
		t.Fatal(err)
	}
}
