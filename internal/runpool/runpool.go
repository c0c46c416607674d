// Package runpool is the ordered-merge worker pool every Monte-Carlo
// campaign and every experiment fan-out runs on. Indices are dispatched in
// ascending order to a bounded set of workers and merged back in index
// order, so a caller sees exactly what a sequential loop would have
// produced — results, trace stream and error — whatever the worker count
// or completion order. docs/parallelism.md states the contract.
package runpool

import (
	"sync"

	"github.com/ancrfid/ancrfid/internal/obs"
)

// Func executes run i, emitting its events to tr (nil when the campaign is
// untraced).
type Func[T any] func(i int, tr obs.Tracer) (T, error)

// Run executes runs 0..n-1 on min(workers, n) goroutines and returns their
// results in index order. newRun is called once per worker, so per-worker
// state (scratch arenas reused across runs) lives in the Func it returns.
//
// With workers <= 1 or n == 1 the runs execute inline on the caller's
// goroutine, emitting straight to tracer. Otherwise each traced run
// records into its own obs.Buffer, and buffers are replayed into tracer in
// run order as the completed prefix grows; tracer is never called
// concurrently.
//
// progress, when non-nil, is called once per completed run, serialized but
// in completion order.
//
// After a run fails nothing new is dispatched and in-flight runs drain.
// Because dispatch is ascending, every index below a failed one has run,
// so the failure returned — with its index and nil results — is the
// lowest failing index's: the error the sequential loop would hit first.
func Run[T any](n, workers int, tracer obs.Tracer, newRun func() Func[T], progress func(i int, v T, err error)) ([]T, int, error) {
	out := make([]T, n)
	if workers <= 1 || n <= 1 {
		run := newRun()
		for i := range out {
			v, err := run(i, tracer)
			if progress != nil {
				progress(i, v, err)
			}
			if err != nil {
				return nil, i, err
			}
			out[i] = v
		}
		return out, -1, nil
	}
	workers = min(workers, n)

	type outcome struct {
		v   T
		err error
		buf *obs.Buffer
	}
	var (
		mu     sync.Mutex
		cond   = sync.NewCond(&mu)
		done   = make([]*outcome, n)
		next   int // next index to dispatch
		failed bool
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			run := newRun()
			for {
				mu.Lock()
				if failed || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()

				o := &outcome{}
				var tr obs.Tracer // nil keeps untraced runs on the fast path
				if tracer != nil {
					o.buf = &obs.Buffer{}
					tr = o.buf
				}
				o.v, o.err = run(i, tr)

				// progress runs under the lock: serializing it is the contract.
				mu.Lock()
				done[i] = o
				failed = failed || o.err != nil
				if progress != nil {
					progress(i, o.v, o.err)
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}

	// Every index up to the first failure was dispatched, so each wait
	// below ends.
	failedAt, firstErr := -1, error(nil)
	for i := range out {
		mu.Lock()
		for done[i] == nil {
			cond.Wait()
		}
		o := done[i]
		done[i] = nil // release the buffer as the prefix is consumed
		mu.Unlock()
		if o.buf != nil {
			o.buf.Replay(tracer)
		}
		if o.err != nil {
			failedAt, firstErr = i, o.err
			break
		}
		out[i] = o.v
	}
	wg.Wait()
	if firstErr != nil {
		return nil, failedAt, firstErr
	}
	return out, -1, nil
}
