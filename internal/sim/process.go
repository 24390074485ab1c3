package sim

import "fmt"

// Proc is a simulation process: a resumable state machine driven by the
// event queue. No goroutine backs it. Its body is a step function that the
// engine calls each time the process is woken; the step function keeps its
// own program counter (the state to resume from), runs until the process
// blocks or finishes, and reports which:
//
//   - it returns false right after arranging exactly one wake-up — a Wait,
//     or a primitive call (Store.Get, Store.Put, Signal.Await) that reported
//     false;
//   - it returns true when the process has finished.
//
// A blocked Store call is retried on the next step (the woken process
// re-checks the store, as a blocking loop would); Wait and Await resume
// past the call. Exactly one process (or event callback) runs at a time, so
// process bodies never race with each other and the simulation stays
// deterministic.
type Proc struct {
	env  *Env
	name string
	step func(p *Proc) bool
	// runFn is the method value p.run, materialized once at creation: every
	// Wait and every primitive wake-up schedules it, and building a fresh
	// method value per wake would allocate a closure each time.
	runFn func()
	// armed is set once the current step has arranged its wake-up.
	armed bool
	// running is set from Start until the step function reports the end.
	running bool
	// prev and next link the environment's live processes, the roster the
	// deadlock diagnostic (Env.BlockedProcs) reads.
	prev, next *Proc
}

// NewProc creates a process whose body is step, without starting it. The
// name is used in deadlock diagnostics only.
func (e *Env) NewProc(name string, step func(p *Proc) bool) *Proc {
	p := &Proc{env: e, name: name, step: step}
	p.runFn = p.run
	return p
}

// Start starts p. The process takes its first step at the current simulated
// time, from an event scheduled now, so it runs after every event already
// due at this instant. A process that has finished may be started again:
// its step function runs from whatever state its owner reset it to, and a
// restart schedules exactly what a fresh Spawn would. Starting a running
// process panics.
func (e *Env) Start(p *Proc) {
	if p.running {
		panic(fmt.Sprintf("sim: process %s started while running", p.name))
	}
	p.running = true
	p.next = e.live
	if e.live != nil {
		e.live.prev = p
	}
	e.live = p
	e.nprocs++
	e.Schedule(0, p.runFn)
}

// Spawn creates and starts a process: NewProc followed by Start.
func (e *Env) Spawn(name string, step func(p *Proc) bool) *Proc {
	p := e.NewProc(name, step)
	e.Start(p)
	return p
}

// run takes one step of the process: from its last blocking point to the
// next one, or to the end of its body.
func (p *Proc) run() {
	p.armed = false
	if !p.step(p) {
		if !p.armed {
			panic(fmt.Sprintf("sim: process %s blocked without arranging a wake-up", p.name))
		}
		return
	}
	if p.armed {
		panic(fmt.Sprintf("sim: process %s finished with a wake-up pending", p.name))
	}
	e := p.env
	p.running = false
	e.nprocs--
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.live = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
}

// arm records that the current step has arranged its wake-up. A second
// wake-up in the same step would resume the process twice.
func (p *Proc) arm() {
	if p.armed {
		panic(fmt.Sprintf("sim: process %s arranged two wake-ups in one step", p.name))
	}
	p.armed = true
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.env.now }

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Wait arranges for the process to resume after d cycles; its step function
// must return false next. Wait(0) yields to other events scheduled at the
// current time.
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: process %s waits negative %d", p.name, d))
	}
	p.arm()
	p.env.Schedule(d, p.runFn)
}

// Signal is a broadcast condition. Processes wait in Await until some event
// calls Fire; every waiter is released. After Fire the signal stays open
// (subsequent Await calls succeed at once) until Reset.
type Signal struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewSignal returns an unfired signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Fired reports whether the signal is open.
func (s *Signal) Fired() bool { return s.fired }

// Fire opens the signal, releasing all waiters. Firing an open signal is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, p := range s.waiters {
		s.env.Schedule(0, p.runFn)
	}
	// Keep the backing array for the next round of waiters (a signal that
	// is Reset and fired again allocates nothing).
	clear(s.waiters)
	s.waiters = s.waiters[:0]
}

// Reset closes the signal so future Await calls block again.
func (s *Signal) Reset() { s.fired = false }

// Waiters reports the number of processes queued in Await.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Await reports whether the signal is open. If it is not, the process is
// queued to resume when the signal fires and Await returns false; the
// process resumes past the Await without checking the signal again.
func (s *Signal) Await(p *Proc) bool {
	if s.fired {
		return true
	}
	s.waiters = append(s.waiters, p)
	p.arm()
	return false
}

// Store is a bounded counter of tokens passed between processes: a
// producer puts a token, a consumer takes one. Tokens carry no value — the
// accelerator model's edge stores, sender queues and stage and group tokens
// only count chunks and grants — so the store keeps a count, not items.
// Put fails while the store is full; Get fails while it is empty. A failed
// call queues the process, in FIFO order, to resume when the store changes,
// and the process retries the call on its next step.
// It models bounded on-chip buffers (e.g. a tile's input staging area).
type Store struct {
	env     *Env
	cap     int
	n       int
	getters []*Proc
	putters []*Proc
}

// NewStore returns a store holding at most capacity tokens. A capacity of 0
// or less means unbounded.
func NewStore(env *Env, capacity int) *Store {
	return &Store{env: env, cap: capacity}
}

// Len reports the number of buffered tokens.
func (s *Store) Len() int { return s.n }

// Waiters reports the number of processes queued to retry a Get or a Put.
func (s *Store) Waiters() int { return len(s.getters) + len(s.putters) }

// Put adds a token and reports true, or — while the store is full — queues
// the process to retry once a slot frees and reports false.
func (s *Store) Put(p *Proc) bool {
	if s.cap > 0 && s.n >= s.cap {
		s.putters = append(s.putters, p)
		p.arm()
		return false
	}
	s.n++
	s.wakeOneGetter()
	return true
}

// TryPut adds a token without blocking; it reports false if the store is
// full. It may be called from event callbacks as well as processes.
func (s *Store) TryPut() bool {
	if s.cap > 0 && s.n >= s.cap {
		return false
	}
	s.n++
	s.wakeOneGetter()
	return true
}

// Get takes a token and reports true, or — while the store is empty —
// queues the process to retry once a token arrives and reports false.
func (s *Store) Get(p *Proc) bool {
	if s.n == 0 {
		s.getters = append(s.getters, p)
		p.arm()
		return false
	}
	s.n--
	s.wakeOnePutter()
	return true
}

func (s *Store) wakeOneGetter() {
	if len(s.getters) == 0 {
		return
	}
	p := s.getters[0]
	copy(s.getters, s.getters[1:])
	s.getters = s.getters[:len(s.getters)-1]
	s.env.Schedule(0, p.runFn)
}

func (s *Store) wakeOnePutter() {
	if len(s.putters) == 0 {
		return
	}
	p := s.putters[0]
	copy(s.putters, s.putters[1:])
	s.putters = s.putters[:len(s.putters)-1]
	s.env.Schedule(0, p.runFn)
}

// Server models a bandwidth-limited FIFO service center (an HBM stack, a NoC
// link): requests of a given size are served one at a time at a fixed rate in
// bytes per cycle. Reserve books a request and returns its completion time,
// including queueing delay behind earlier requests; a process that must see
// the request drain waits until then.
type Server struct {
	env         *Env
	bytesPerCyc float64
	freeAt      Time // earliest time a new request can start service
	busyCycles  Time // accumulated service time, for utilization accounting
	servedBytes float64
	servedCount int64
}

// NewServer returns a server draining bytesPerCycle bytes each cycle.
func NewServer(env *Env, bytesPerCycle float64) *Server {
	if bytesPerCycle <= 0 {
		panic("sim: server rate must be positive")
	}
	return &Server{env: env, bytesPerCyc: bytesPerCycle}
}

// SetRate changes the server's drain rate. Requests already booked keep
// their completion times (they were admitted at the old rate); only future
// requests are served at the new rate. The fault injector uses this to model
// degraded links and lost memory stacks mid-simulation.
func (s *Server) SetRate(bytesPerCycle float64) {
	if bytesPerCycle <= 0 {
		panic("sim: server rate must be positive")
	}
	s.bytesPerCyc = bytesPerCycle
}

// Rate returns the current drain rate in bytes per cycle.
func (s *Server) Rate() float64 { return s.bytesPerCyc }

// ServiceTime returns the pure service time for a request of n bytes,
// excluding queueing.
func (s *Server) ServiceTime(n int64) Time {
	if n <= 0 {
		return 0
	}
	t := Time(float64(n) / s.bytesPerCyc)
	if t < 1 {
		t = 1
	}
	return t
}

// Reserve books service for n bytes and returns the completion time. A
// request of no bytes completes now and books nothing.
func (s *Server) Reserve(n int64) Time {
	if n <= 0 {
		return s.env.now
	}
	start := s.env.now
	if s.freeAt > start {
		start = s.freeAt
	}
	d := s.ServiceTime(n)
	s.freeAt = start + d
	s.busyCycles += d
	s.servedBytes += float64(n)
	s.servedCount++
	return s.freeAt
}

// BusyCycles returns the total cycles the server spent serving requests.
func (s *Server) BusyCycles() Time { return s.busyCycles }

// ServedBytes returns the total bytes served.
func (s *Server) ServedBytes() float64 { return s.servedBytes }

// ServedCount returns the number of requests served.
func (s *Server) ServedCount() int64 { return s.servedCount }
