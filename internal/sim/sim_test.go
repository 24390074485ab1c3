package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	env := NewEnv()
	var got []int
	env.Schedule(10, func() { got = append(got, 2) })
	env.Schedule(5, func() { got = append(got, 1) })
	env.Schedule(10, func() { got = append(got, 3) }) // same time: FIFO by seq
	env.Schedule(20, func() { got = append(got, 4) })
	end := env.Run()
	if end != 20 {
		t.Fatalf("end time = %d, want 20", end)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	env := NewEnv()
	fired := 0
	env.Schedule(5, func() { fired++ })
	env.Schedule(50, func() { fired++ })
	env.RunUntil(10)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if env.Now() != 10 {
		t.Fatalf("now = %d, want 10", env.Now())
	}
	if env.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", env.Pending())
	}
	env.Run()
	if fired != 2 || env.Now() != 50 {
		t.Fatalf("after full run: fired=%d now=%d", fired, env.Now())
	}
}

// TestEnvStepToLeavesHorizonPending pins StepTo's strict-horizon contract,
// which the machine's streaming API (Machine.StepTo, StreamRetire) relies on:
// events before the horizon run, an event exactly at it stays pending, the
// clock lands on the horizon, and NextEvent reports the earliest pending
// event (ok=false once idle).
func TestEnvStepToLeavesHorizonPending(t *testing.T) {
	env := NewEnv()
	if _, ok := env.NextEvent(); ok {
		t.Fatal("NextEvent on an empty queue reported ok")
	}
	var fired []Time
	for _, at := range []Time{10, 3, 7} {
		env.At(at, func() { fired = append(fired, env.Now()) })
	}
	if at, ok := env.NextEvent(); !ok || at != 3 {
		t.Fatalf("NextEvent = %d, %v; want 3, true", at, ok)
	}
	env.StepTo(7)
	if !reflect.DeepEqual(fired, []Time{3}) {
		t.Fatalf("fired %v before horizon 7, want [3]", fired)
	}
	if env.Now() != 7 {
		t.Fatalf("now = %d, want 7", env.Now())
	}
	if at, ok := env.NextEvent(); !ok || at != 7 {
		t.Fatalf("event at the horizon: NextEvent = %d, %v; want 7, true", at, ok)
	}
	env.StepTo(20)
	if !reflect.DeepEqual(fired, []Time{3, 7, 10}) || env.Now() != 20 {
		t.Fatalf("after StepTo(20): fired %v now %d", fired, env.Now())
	}
	if _, ok := env.NextEvent(); ok {
		t.Fatal("NextEvent reported ok after every event ran")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	NewEnv().Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	env := NewEnv()
	env.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		env.At(5, func() {})
	})
	env.Run()
}

func TestProcessWait(t *testing.T) {
	env := NewEnv()
	var times []Time
	waits := []Time{7, 3}
	env.Spawn("w", func(p *Proc) bool {
		times = append(times, p.Now())
		if len(waits) == 0 {
			return true
		}
		p.Wait(waits[0])
		waits = waits[1:]
		return false
	})
	env.Run()
	want := []Time{0, 7, 10}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Spawn("a", sequence([]Time{1, 2}, func(i int) {
		order = append(order, []string{"a1", "a3"}[i])
	}))
	env.Spawn("b", sequence([]Time{2, 2}, func(i int) {
		order = append(order, []string{"b2", "b4"}[i])
	}))
	env.Run()
	want := []string{"a1", "b2", "a3", "b4"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// awaiter returns a step function that waits for sig once, then calls
// then and finishes.
func awaiter(sig *Signal, then func()) func(p *Proc) bool {
	waited := false
	return func(p *Proc) bool {
		if !waited {
			waited = true
			if !sig.Await(p) {
				return false
			}
		}
		then()
		return true
	}
}

// sequence returns a step function that waits each of waits in turn,
// calling after(i) once the i-th wait has elapsed.
func sequence(waits []Time, after func(i int)) func(p *Proc) bool {
	i := -1
	return func(p *Proc) bool {
		if i >= 0 {
			after(i)
		}
		i++
		if i == len(waits) {
			return true
		}
		p.Wait(waits[i])
		return false
	}
}

func TestSignalBroadcast(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var woke []string
	env.Spawn("w1", awaiter(sig, func() { woke = append(woke, "w1") }))
	env.Spawn("w2", awaiter(sig, func() { woke = append(woke, "w2") }))
	env.Spawn("firer", sequence([]Time{5}, func(int) { sig.Fire() }))
	env.Run()
	if len(woke) != 2 {
		t.Fatalf("woke = %v, want both waiters", woke)
	}
	if env.Now() != 5 {
		t.Fatalf("now = %d, want 5", env.Now())
	}
	// A fired signal does not block.
	released := false
	env.Spawn("late", func(p *Proc) bool {
		if !sig.Await(p) {
			t.Error("Await on a fired signal blocked")
			return false
		}
		released = true
		return true
	})
	env.Run()
	if !released {
		t.Fatal("late waiter blocked on fired signal")
	}
}

func TestSignalReset(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	sig.Fire()
	if !sig.Fired() {
		t.Fatal("signal should be fired")
	}
	sig.Reset()
	if sig.Fired() {
		t.Fatal("signal should be reset")
	}
}

// producer returns a step function that puts n tokens into st, waiting gap
// cycles before each Put.
func producer(st *Store, n int, gap Time) func(p *Proc) bool {
	i, waited := 1, false
	return func(p *Proc) bool {
		for i <= n {
			if !waited {
				waited = true
				p.Wait(gap)
				return false
			}
			if !st.Put(p) {
				return false
			}
			i++
			waited = false
		}
		return true
	}
}

// TestStoreFIFO pins the store's two queues of waiters: processes blocked
// in Get (or in Put on a full store) resume in the order they blocked, one
// per token taken (or slot freed), and Len counts the buffered tokens.
func TestStoreFIFO(t *testing.T) {
	env := NewEnv()
	st := NewStore(env, 2)
	var got []string
	stamp := func(name string) { got = append(got, fmt.Sprintf("%s@%d", name, env.Now())) }
	for _, name := range []string{"g0", "g1", "g2"} {
		env.Spawn(name, func(p *Proc) bool {
			if !st.Get(p) {
				return false
			}
			stamp(name)
			return true
		})
	}
	env.RunUntil(0)
	if st.Waiters() != 3 || st.Len() != 0 {
		t.Fatalf("three blocked getters: waiters %d, len %d", st.Waiters(), st.Len())
	}
	// One token per cycle: each wakes the longest-waiting getter.
	env.Spawn("producer", producer(st, 3, 1))
	env.Run()
	// Fill the store, then block three putters; a consumer taking one token
	// every 5 cycles frees a slot for each in turn.
	st.TryPut()
	st.TryPut()
	if st.Len() != 2 || st.TryPut() {
		t.Fatalf("full store: len %d, or TryPut succeeded past capacity", st.Len())
	}
	for _, name := range []string{"p0", "p1", "p2"} {
		env.Spawn(name, func(p *Proc) bool {
			if !st.Put(p) {
				return false
			}
			stamp(name)
			return true
		})
	}
	env.RunUntil(env.Now())
	if st.Waiters() != 3 {
		t.Fatalf("three blocked putters: waiters %d", st.Waiters())
	}
	taken := 0
	env.Spawn("consumer", func(p *Proc) bool {
		if taken == 3 {
			return true
		}
		if !st.Get(p) {
			return false
		}
		taken++
		p.Wait(5)
		return false
	})
	env.Run()
	want := []string{"g0@1", "g1@2", "g2@3", "p0@3", "p1@8", "p2@13"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("wake order %v, want %v", got, want)
	}
	if st.Len() != 2 || st.Waiters() != 0 {
		t.Fatalf("after the putters: len %d, waiters %d; want 2, 0", st.Len(), st.Waiters())
	}
}

func TestStoreBackpressure(t *testing.T) {
	env := NewEnv()
	st := NewStore(env, 2)
	var putDone Time
	next := 1
	env.Spawn("producer", func(p *Proc) bool {
		for ; next <= 3; next++ { // the third Put blocks until t=10
			if !st.Put(p) {
				return false
			}
		}
		putDone = p.Now()
		return true
	})
	waited := false
	env.Spawn("consumer", func(p *Proc) bool {
		if !waited {
			waited = true
			p.Wait(10)
			return false
		}
		return st.Get(p)
	})
	env.Run()
	if putDone != 10 {
		t.Fatalf("third Put completed at %d, want 10 (backpressure)", putDone)
	}
}

func TestStoreTryPut(t *testing.T) {
	env := NewEnv()
	st := NewStore(env, 1)
	if !st.TryPut() {
		t.Fatal("first TryPut should succeed")
	}
	if st.TryPut() {
		t.Fatal("TryPut into a full store should fail")
	}
	if st.Len() != 1 {
		t.Fatalf("len = %d, want 1", st.Len())
	}
	env.Spawn("consumer", func(p *Proc) bool { return st.Get(p) })
	env.Run()
	if st.Len() != 0 || !st.TryPut() {
		t.Fatalf("after a Get: len = %d, want a free slot", st.Len())
	}
}

func TestServerQueueing(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, 10) // 10 bytes/cycle
	var done []Time
	for i := 0; i < 3; i++ {
		at := srv.Reserve(100) // 10 cycles of service each
		env.At(at, func() { done = append(done, env.Now()) })
	}
	env.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v", done, want)
		}
	}
	if srv.BusyCycles() != 30 {
		t.Fatalf("busy = %d, want 30", srv.BusyCycles())
	}
	if srv.ServedBytes() != 300 {
		t.Fatalf("bytes = %v, want 300", srv.ServedBytes())
	}
	if srv.ServedCount() != 3 {
		t.Fatalf("count = %d, want 3", srv.ServedCount())
	}
}

func TestServerZeroBytesFree(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, 1)
	env.Schedule(5, func() {
		if got := srv.Reserve(0); got != 5 {
			t.Errorf("zero-byte reserve completes at %d, want now (5)", got)
		}
	})
	env.Run()
	if srv.ServedCount() != 0 || srv.BusyCycles() != 0 {
		t.Fatalf("zero-byte reserve was booked: %d requests, %d busy cycles", srv.ServedCount(), srv.BusyCycles())
	}
}

func TestServerReserve(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, 4)
	if got := srv.Reserve(40); got != 10 {
		t.Fatalf("first reserve done at %d, want 10", got)
	}
	if got := srv.Reserve(40); got != 20 {
		t.Fatalf("second reserve done at %d, want 20", got)
	}
}

func TestServerMinimumOneCycle(t *testing.T) {
	env := NewEnv()
	srv := NewServer(env, 1000)
	if srv.ServiceTime(1) != 1 {
		t.Fatal("sub-cycle transfers must round up to one cycle")
	}
}

// Property: for any set of event delays, Run visits them in nondecreasing
// time order and ends at the max delay.
func TestQuickEventOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		env := NewEnv()
		var visited []Time
		maxd := Time(0)
		for _, r := range raw {
			d := Time(r)
			if d > maxd {
				maxd = d
			}
			env.Schedule(d, func() { visited = append(visited, env.Now()) })
		}
		end := env.Run()
		if end != maxd {
			return false
		}
		return sort.SliceIsSorted(visited, func(i, j int) bool { return visited[i] < visited[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a FIFO server conserves work — total completion equals the sum of
// service times when requests arrive back-to-back at t=0.
func TestQuickServerWorkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		env := NewEnv()
		srv := NewServer(env, 7)
		var want Time
		for _, s := range sizes {
			n := int64(s) + 1
			want += srv.ServiceTime(n)
			env.At(srv.Reserve(n), func() {})
		}
		env.Run()
		return srv.BusyCycles() == want && env.Now() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesStress(t *testing.T) {
	env := NewEnv()
	rng := rand.New(rand.NewSource(1))
	total := 0
	for i := 0; i < 500; i++ {
		n := 1 + rng.Intn(20)
		total += n
		j := 0
		env.Spawn("p", func(p *Proc) bool {
			if j == n {
				return true
			}
			j++
			p.Wait(Time(1 + rng.Intn(5)))
			return false
		})
	}
	env.Run()
	if env.nprocs != 0 || env.live != nil {
		t.Fatalf("%d processes still live", env.nprocs)
	}
	_ = total
}

// The pooled value-heap engine must fire events in exactly the order the
// seed container/heap engine did: sorted by (at, seq). The reference model
// here is a stable sort of the schedule calls — precisely that contract —
// checked over randomized workloads that interleave scheduling and draining
// (events scheduled from inside events, equal timestamps, bursts).
func TestEngineMatchesReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		env := NewEnv()
		type stamp struct {
			at  Time
			seq int
		}
		var fired []stamp
		var want []stamp
		done := map[int]bool{}
		seq := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := 1 + rng.Intn(30)
			for i := 0; i < n; i++ {
				d := Time(rng.Intn(7)) // small range forces many ties
				at := env.Now() + d
				seq++
				mySeq := seq
				want = append(want, stamp{at: at, seq: mySeq})
				env.Schedule(d, func() {
					fired = append(fired, stamp{at: env.Now(), seq: mySeq})
					done[mySeq] = true
					// Occasionally schedule more work from inside an event,
					// the pattern processes produce constantly.
					if depth < 3 && rng.Intn(4) == 0 {
						schedule(depth + 1)
					}
				})
			}
		}
		// checkPending compares Pending and NextEvent with the reference's
		// unfired events, whether they sit on the heap or the lane.
		checkPending := func(when string) {
			t.Helper()
			n, next := 0, Forever
			for _, w := range want {
				if !done[w.seq] {
					n++
					next = min(next, w.at)
				}
			}
			if got := env.Pending(); got != n {
				t.Fatalf("trial %d %s: Pending() = %d, reference has %d unfired", trial, when, got, n)
			}
			got, ok := env.NextEvent()
			if ok != (n > 0) || (ok && got != next) {
				t.Fatalf("trial %d %s: NextEvent() = %d, %v; reference next %d of %d unfired",
					trial, when, got, ok, next, n)
			}
		}
		schedule(0)
		// Advance by random horizons, alternating the two bounded advances.
		// Between advances the driver schedules more events itself; those at
		// the current time land on the lane next to any heap events StepTo
		// left pending at the horizon.
		for round := 0; len(fired) < len(want); round++ {
			checkPending("before scheduling")
			if round < 20 && rng.Intn(3) == 0 {
				schedule(3)
				checkPending("after scheduling")
			}
			h := env.Now() + Time(rng.Intn(6))
			if rng.Intn(2) == 0 {
				env.RunUntil(h)
			} else {
				env.StepTo(h)
			}
			if env.Now() != h {
				t.Fatalf("trial %d: clock %d after advancing to %d", trial, env.Now(), h)
			}
		}
		checkPending("at the end")
		// Reference order: stable sort by timestamp (stability preserves the
		// scheduling sequence for ties).
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: event %d fired as %+v, reference order wants %+v",
					trial, i, fired[i], want[i])
			}
		}
	}
}

// Starting a process that is already running — queued for its first step
// or blocked mid-body — panics: it would resume twice.
func TestStartRunningProcPanics(t *testing.T) {
	for _, when := range []string{"before its first step", "while blocked"} {
		env := NewEnv()
		p := env.Spawn("busy", sequence([]Time{5}, func(int) {}))
		if when == "while blocked" {
			env.RunUntil(1)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Start of a running process did not panic", when)
				}
			}()
			env.Start(p)
		}()
	}
}

// A finished process started again schedules exactly what a fresh Spawn of
// the same body would: the interleaving with other processes, and so every
// timestamp, is the same either way.
func TestRestartedProcMatchesSpawn(t *testing.T) {
	run := func(restart bool) []string {
		env := NewEnv()
		var log []string
		stamp := func(name string) func(int) {
			return func(i int) { log = append(log, fmt.Sprintf("%s%d@%d", name, i, env.Now())) }
		}
		st := NewStore(env, 1)
		env.Spawn("producer", producer(st, 6, 1))
		// The worker's step function reads its state from w, so resetting w
		// rewinds the body, the way a pooled owner resets its processes.
		var w struct{ got int }
		work := func(p *Proc) bool {
			for w.got < 3 {
				if !st.Get(p) {
					return false
				}
				w.got++
				stamp("w")(w.got)
			}
			return true
		}
		worker := env.Spawn("worker", work)
		env.Spawn("ticker", sequence([]Time{0, 2, 0, 3}, stamp("t")))
		env.RunUntil(4)
		env.Spawn("late", sequence([]Time{0, 1}, stamp("l")))
		env.RunUntil(5)
		w.got = 0
		if restart {
			env.Start(worker)
		} else {
			env.Spawn("worker", work)
		}
		env.Run()
		if env.Live() != 0 {
			t.Fatalf("restart=%v: %d processes still live", restart, env.Live())
		}
		return log
	}
	fresh, restarted := run(false), run(true)
	if !reflect.DeepEqual(fresh, restarted) {
		t.Fatalf("restarted process diverges from a fresh spawn:\n fresh:     %v\n restarted: %v", fresh, restarted)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env := NewEnv()
		for j := 0; j < 1000; j++ {
			env.Schedule(Time(j%97), func() {})
		}
		env.Run()
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	env := NewEnv()
	i := 0
	env.Spawn("spin", func(p *Proc) bool {
		if i == b.N {
			return true
		}
		i++
		p.Wait(1)
		return false
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

func TestBlockedProcsDiagnostic(t *testing.T) {
	env := NewEnv()
	st := NewStore(env, 0)
	env.Spawn("starved-consumer", func(p *Proc) bool {
		return st.Get(p) // never fed
	})
	env.Spawn("fine", sequence([]Time{3}, func(int) {}))
	env.Run()
	if env.Live() != 1 {
		t.Fatalf("live = %d, want 1", env.Live())
	}
	blocked := env.BlockedProcs()
	if len(blocked) != 1 || blocked[0] != "starved-consumer" {
		t.Fatalf("blocked = %v", blocked)
	}
	// Feeding the store resumes and clears the diagnostic.
	st.TryPut()
	env.Run()
	if env.Live() != 0 || len(env.BlockedProcs()) != 0 {
		t.Fatalf("still blocked after feed: %v", env.BlockedProcs())
	}
}

func TestBlockedProcsEmptyOnCleanRun(t *testing.T) {
	env := NewEnv()
	env.Spawn("a", sequence([]Time{5}, func(int) {}))
	env.Run()
	if n := len(env.BlockedProcs()); n != 0 {
		t.Fatalf("clean run reports %d blocked procs", n)
	}
}

// A process's wait/wake cycle is one event dispatch: in steady state it
// allocates nothing, whether the wake comes from a timer or from a store.
func TestWaitWakeCycleAllocatesNothing(t *testing.T) {
	env := NewEnv()
	st := NewStore(env, 1)
	waiting := false
	env.Spawn("consumer", func(p *Proc) bool {
		for {
			if !waiting {
				waiting = true
				p.Wait(1)
				return false
			}
			if !st.Get(p) {
				return false
			}
			waiting = false
		}
	})
	cycle := func() {
		env.Run()   // the consumer waits out its timer, then blocks on the store
		st.TryPut() // wake it from the store
	}
	for i := 0; i < 4; i++ {
		cycle() // grow the queue and waiter slices to steady state
	}
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("wait/wake cycle allocates %.1f times, want 0", n)
	}
}

// A store queues its waiters through the processes themselves, so the
// first Get that blocks on a new store allocates nothing. Later waiters
// still queue behind it in FIFO order.
func TestStoreFirstBlockedGetAllocatesNothing(t *testing.T) {
	env := NewEnv()
	const runs = 100
	stores := make([]*Store, runs+1) // AllocsPerRun adds a warm-up call
	procs := make([]*Proc, runs+1)
	for i := range stores {
		stores[i] = NewStore(env, 1)
		procs[i] = env.NewProc("getter", func(*Proc) bool { return true })
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if stores[i].Get(procs[i]) {
			t.Fatal("Get on an empty store succeeded")
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a new store's first blocked Get allocates %.1f times, want 0", allocs)
	}
	if w := stores[0].Waiters(); w != 1 {
		t.Fatalf("Waiters = %d, want 1", w)
	}

	var order []string
	st := NewStore(env, 0)
	for _, name := range []string{"a", "b", "c"} {
		env.Spawn(name, func(p *Proc) bool {
			if !st.Get(p) {
				return false
			}
			order = append(order, p.Name())
			return true
		})
	}
	env.Run()
	if w := st.Waiters(); w != 3 {
		t.Fatalf("Waiters = %d, want 3", w)
	}
	for range 3 {
		st.TryPut()
	}
	env.Run()
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("getters woke in order %q, want abc", got)
	}
}

// A step function that returns false must have arranged its wake-up, or
// the process would silently vanish from the simulation.
func TestBlockWithoutWakePanics(t *testing.T) {
	env := NewEnv()
	env.Spawn("lost", func(p *Proc) bool { return false })
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a process blocking without a wake-up")
		}
	}()
	env.Run()
}

func TestTwoWakesInOneStepPanics(t *testing.T) {
	env := NewEnv()
	env.Spawn("double", func(p *Proc) bool {
		p.Wait(1)
		p.Wait(2)
		return false
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for two wake-ups in one step")
		}
	}()
	env.Run()
}

// A step that schedules more work after its Wait queues the deferred
// wake-up first, so it keeps the sequence order Wait gave it: an event the
// step schedules for the same time runs after the process, and one for an
// earlier time before it.
func TestWaitThenScheduleKeepsOrder(t *testing.T) {
	env := NewEnv()
	var got []string
	started := false
	env.Spawn("p", func(p *Proc) bool {
		if started {
			got = append(got, fmt.Sprintf("p@%d", env.Now()))
			return true
		}
		started = true
		p.Wait(3)
		env.Schedule(3, func() { got = append(got, fmt.Sprintf("same@%d", env.Now())) })
		env.Schedule(2, func() { got = append(got, fmt.Sprintf("early@%d", env.Now())) })
		return false
	})
	env.Run()
	if want := []string{"early@2", "p@3", "same@3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if d, ip := env.Wakeups(); d != 4 || ip != 0 {
		t.Fatalf("wake-ups: %d dispatched, %d in place; want 4, 0", d, ip)
	}
}
