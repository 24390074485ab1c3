// Package runner provides the bounded worker pool the experiment harness
// fans independent simulations out on. Every sweep of the evaluation — the
// Figure 9 design×model matrix, the hardware DSE, the Figure 12/13 and
// ablation sweeps — is embarrassingly parallel: each point is one core run
// that owns its operator graph and its machine and only reads a shared
// batch trace. The sweeps submit their runs to core.RunJobs, which
// dispatches them through Map. The pool exploits that while keeping the
// aggregate results bit-identical to a serial execution: results are
// returned in submission (index) order, so any table built from them is
// byte-for-byte the same no matter how many workers ran or how they
// interleaved.
//
// Error semantics mirror a serial loop as closely as concurrency allows: on
// the first failure no further work is dispatched, in-flight work is allowed
// to finish, and the error reported is the one with the lowest index (the
// same error a serial loop would have stopped at, provided earlier jobs
// succeed). A panic inside a job is captured and re-raised on the calling
// goroutine.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the pool width used when a caller passes workers <= 0:
// one worker per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Serial forces single-worker (fully sequential, in-order) execution when
// passed as the workers argument.
const Serial = 1

// Map runs fn(0) … fn(n-1) on at most workers goroutines and returns the
// results in index order. workers <= 0 selects DefaultWorkers(); workers ==
// Serial runs the loop inline with no goroutines at all. After the first
// error no new indices are dispatched, and the lowest-index error is
// returned. The output slice is nil on error.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == Serial {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64 // next index to dispatch
		failed   atomic.Bool  // stops dispatch after the first error/panic
		mu       sync.Mutex   // guards firstErr/errIdx/panicVal
		firstErr error
		errIdx   int
		panicVal any
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < errIdx {
			firstErr, errIdx = err, i
		}
		mu.Unlock()
		failed.Store(true)
	}
	work := func() {
		defer wg.Done()
		for {
			if failed.Load() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if panicVal == nil {
							panicVal = r
						}
						mu.Unlock()
						fail(i, fmt.Errorf("runner: job %d panicked: %v", i, r))
					}
				}()
				v, err := fn(i)
				if err != nil {
					fail(i, err)
					return
				}
				out[i] = v
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
