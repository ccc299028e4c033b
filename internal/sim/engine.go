//go:build go1.23

// Package sim implements a deterministic discrete-event simulation of a
// shared-memory multiprocessor, the substrate on which the parallelized
// protocol stacks of this repository execute.
//
// The model: P virtual processors each run one protocol thread (the paper
// wires one IRIX thread per CPU). Threads are coroutines, and the engine
// resumes exactly one at a time — always the runnable thread with the
// smallest virtual clock — so execution is sequential, race-free and
// reproducible. Protocol code is real; only time is virtual: threads
// charge virtual nanoseconds from the cost model (internal/cost) as they
// work, and synchronize through simulated locks whose contention,
// backoff-probe timing and cache-coherence penalties are modeled
// explicitly (see lock.go).
//
// Rules for code running on the engine:
//
//   - Pure computation on thread-owned data (messages, headers) needs no
//     engine interaction; charge its cost with Thread.Charge.
//   - Any touch of shared simulation state (protocol control blocks, maps,
//     free lists, counters) must happen either under a simulated lock or
//     immediately after Thread.Sync, which parks the thread until it holds
//     the minimum virtual time. Because the engine serializes execution,
//     such accesses are free of data races in the Go sense; Sync ordering
//     makes them correct in virtual time as well.
//   - Statistics counters shared across threads use atomic operations:
//     in sim mode the engine's serialization keeps them deterministic,
//     and in host mode (below) they are what makes the code race-clean.
//
// The engine is a dual-mode execution substrate. NewBackend with
// BackendHost builds an engine whose threads are real goroutines, whose
// locks take real spin or park mechanisms with the same wait and hold
// accounting in wall-clock ns, and whose Now() reads the host monotonic
// clock — the same *Thread handle and Locker interfaces, so protocol
// code compiles unchanged against either backend. See host.go for the rules.
package sim

import (
	"fmt"
	"iter"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// threadState tracks where a thread is in its lifecycle.
type threadState int32

const (
	stateNew threadState = iota
	stateReady
	stateRunning
	stateBlocked
	stateDone
)

func (s threadState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateDone:
		return "done"
	}
	return "invalid"
}

// Thread is one simulated thread of control, bound to a virtual
// processor. It doubles as the per-processor context that the x-kernel
// passes implicitly: per-processor resource caches and map-manager
// counting locks key off Thread.Proc.
//
// Thread structs (and their worker coroutines) are pooled by the
// engine: when a thread's body returns, the struct parks on a free list
// and the next Spawn reuses it instead of allocating a new coroutine.
type Thread struct {
	eng  *Engine
	name string

	// ID is a unique small integer, assigned at spawn.
	ID int
	// Proc is the virtual processor this thread currently runs on.
	// With wired threads (the paper's configuration) it never changes.
	Proc int

	vt      int64 // local virtual clock, ns
	pushSeq int64 // FIFO tiebreak among equal clocks
	state   threadState
	resume  chan struct{} // host backend only: capacity-1 wake channel

	// next resumes the worker coroutine (called by the RunUntil driver
	// only); stop ends it. park, the coroutine's yield, suspends it and
	// reports false once stop has been called.
	next func() (struct{}, bool)
	stop func()
	park func(struct{}) bool

	// fn is the thread body for the current (or next) life of this
	// struct's worker coroutine; nil while parked on the free list.
	fn func(*Thread)

	rng Rand

	// blockReason and blockOn aid deadlock dumps: why the thread is
	// blocked and, for a lock wait, the lock's name.
	blockReason string
	blockOn     string
}

// drainSignal unwinds a parked thread's stack during Engine.Drain. It
// is recovered by the worker loop and never escapes to user code.
type drainSignal struct{}

// Engine is the discrete-event scheduler.
//
// Each thread runs as a coroutine (iter.Pull) and RunUntil is the
// driver loop that resumes the chosen one. The thread giving up control
// makes the scheduling decision itself: if it is still the minimum it
// simply keeps running, otherwise it records its successor in cur and
// parks, and the driver resumes cur — two coroutine switches per
// handoff, with no trip through the Go scheduler. Exactly one coroutine
// runs at any moment, and every switch is a happens-before edge.
type Engine struct {
	C *cost.Model

	heap    []*Thread
	pushCtr int64
	now     int64
	live    int
	cur     *Thread
	nextID  int
	rng     Rand
	started bool

	// limit is the active RunUntil bound (-1 when unbounded).
	limit int64
	// stopped ends the RunUntil driver loop: all threads done, limit
	// reached, or deadlock.
	stopped bool
	// stopPanic carries a deadlock dump to the driver.
	stopPanic any
	// threads registers every Thread struct ever spawned (live, parked
	// and pooled); Drain walks it to release parked coroutines.
	threads []*Thread
	// free is the pool of done threads whose workers are parked awaiting
	// another Spawn.
	free []*Thread
	// draining makes a thread that tries to park unwind via drainSignal.
	draining bool

	// Trace, when non-nil, receives one line per scheduling decision;
	// used by tests.
	Trace func(string)

	// Rec, when non-nil, is the packet flight recorder. Instrumented
	// code reaches it via Thread.Engine().Rec; every recording method
	// is nil-safe, so the disabled path is a single pointer test.
	// Recording never charges virtual time or draws from a thread's
	// RNG: measurements are bit-identical with tracing on or off.
	Rec *trace.Recorder

	// Tel, when non-nil, is the virtual-time telemetry sampler
	// (internal/telemetry). step ticks it as the clock advances so
	// samples land on exact period boundaries, and the locks publish
	// wait/hold/acquire counters through it. Like Rec, every method is
	// nil-safe and sampling never charges virtual time, draws RNG or
	// spawns threads: runs are bit-identical with sampling on or off.
	Tel *telemetry.Sampler

	// mu guards state that threads share outside the virtual-time
	// order: on the host backend, spawn bookkeeping (thread IDs, the
	// spawn RNG stream); on both backends, the refcount pool
	// assignment.
	mu sync.Mutex

	// refPool is the finite set of static global locks used for
	// lock-based reference-count manipulation (RefLocked mode); the
	// x-kernel/SICS systems used such a pool rather than a lock per
	// object (Section 2.1).
	refPool [2]Mutex
	refSeq  int

	// host is non-nil when the engine runs on the host backend
	// (BackendHost): real goroutines, sync-based locks, monotonic
	// clock. All the scheduling state above is then unused.
	host *hostEngine
}

// New creates a simulation-backend engine with the given cost model and
// seed.
func New(model *cost.Model, seed uint64) *Engine {
	return NewBackend(model, seed, BackendSim)
}

// NewBackend creates an engine on the chosen execution substrate. The
// cost model is only consulted in sim mode but must still be valid (it
// defaults if nil); the seed feeds per-thread RNGs in both modes.
func NewBackend(model *cost.Model, seed uint64, backend Backend) *Engine {
	if model == nil {
		model = cost.NewModel(cost.Challenge100)
	}
	e := &Engine{
		C:     model,
		limit: -1,
		rng:   NewRand(seed),
	}
	if backend == BackendHost {
		e.host = &hostEngine{epoch: time.Now()}
	}
	return e
}

// Now returns the engine's current virtual time — or, on the host
// backend, monotonic wall-clock ns since the engine was created.
func (e *Engine) Now() int64 {
	if h := e.host; h != nil {
		return h.now()
	}
	return e.now
}

// Spawn creates a thread bound to processor proc and schedules it at the
// current virtual time. It may be called before Run or from a running
// thread. Thread structs and worker coroutines are reused from the
// engine's pool when available.
func (e *Engine) Spawn(name string, proc int, fn func(*Thread)) *Thread {
	if h := e.host; h != nil {
		t := &Thread{
			eng:    e,
			name:   name,
			Proc:   proc,
			state:  stateRunning,
			resume: make(chan struct{}, 1),
			fn:     fn,
		}
		e.mu.Lock()
		t.ID = e.nextID
		e.nextID++
		t.rng = NewRand(e.rng.Uint64())
		e.mu.Unlock()
		h.wg.Add(1)
		go h.run(t)
		return t
	}
	var t *Thread
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		t.name = name
		t.Proc = proc
		t.vt = e.now
		t.state = stateNew
		t.blockReason, t.blockOn = "", ""
		t.ID = e.nextID
		t.rng = NewRand(e.rng.Uint64())
		t.fn = fn
	} else {
		t = &Thread{
			eng:   e,
			name:  name,
			ID:    e.nextID,
			Proc:  proc,
			vt:    e.now,
			state: stateNew,
			rng:   NewRand(e.rng.Uint64()),
			fn:    fn,
		}
		e.threads = append(e.threads, t)
		t.next, t.stop = iter.Pull(e.worker(t))
	}
	e.nextID++
	e.live++
	e.push(t)
	return t
}

// worker is the coroutine behind a Thread struct. Each iteration is
// one thread lifetime: run the body, retire to the pool, hand the token
// on, then park until Spawn reuses the struct. stop (pool release or
// Drain) ends the coroutine.
func (e *Engine) worker(t *Thread) iter.Seq[struct{}] {
	return func(park func(struct{}) bool) {
		t.park = park
		for {
			if !e.call(t) {
				e.handoff()
			}
			if !park(struct{}{}) {
				return
			}
		}
	}
}

// call runs the thread body and retires t. A drainSignal panic (from
// Drain unwinding the stack) is absorbed. Any other panic is re-raised:
// it ends the coroutine and reaches the RunUntil caller through next,
// so t leaves the engine without returning to the pool.
func (e *Engine) call(t *Thread) (drained bool) {
	defer func() {
		r := recover()
		_, drained = r.(drainSignal)
		e.retire(t, r == nil || drained)
		if r != nil && !drained {
			panic(r)
		}
	}()
	t.fn(t)
	return false
}

// retire marks t done and, if pool is set, parks its struct on the free
// list for reuse.
func (e *Engine) retire(t *Thread, pool bool) {
	t.state = stateDone
	t.fn = nil
	e.live--
	if pool {
		e.free = append(e.free, t)
	}
}

// handoff chooses the thread the driver resumes next, or stops the
// driver when no thread is live.
func (e *Engine) handoff() {
	e.stopped = e.live == 0
	if !e.stopped {
		e.step(nil)
	}
}

// step makes one scheduling decision while holding the token: pop the
// minimum-clock runnable thread and dispatch it. self, when non-nil, is
// the calling thread; step reports whether it is itself the minimum and
// keeps running. When the simulation cannot proceed (limit reached,
// deadlock), the driver is stopped instead.
func (e *Engine) step(self *Thread) bool {
	next := e.pop()
	if next == nil {
		e.stopPanic = "sim: deadlock — all threads blocked\n" + e.dump()
		e.stopped = true
		return false
	}
	if e.limit >= 0 && next.vt > e.limit {
		e.push(next)
		e.stopped = true
		return false
	}
	e.dispatch(next)
	return next == self
}

// dispatch makes next the running thread at its virtual time.
func (e *Engine) dispatch(next *Thread) {
	if next.vt > e.now {
		e.now = next.vt
	} else {
		// A thread woken "in the past" (e.g. granted a lock released at
		// an earlier point than the clock has reached) resumes now.
		next.vt = e.now
	}
	e.Tel.Tick(e.now)
	next.state = stateRunning
	e.cur = next
	if e.Trace != nil {
		e.Trace(fmt.Sprintf("t=%d run %s", e.now, next.name))
	}
}

// Run drives the simulation until every thread has terminated. It panics
// with a state dump if all remaining threads are blocked (deadlock).
func (e *Engine) Run() {
	e.RunUntil(-1)
}

// RunUntil drives the simulation until all threads terminate or the
// virtual clock would pass limit (limit < 0 means no limit). It returns
// the number of live threads remaining.
//
// When it returns non-zero, the remaining threads stay parked in their
// coroutines; resume them with another RunUntil, or release them with
// Drain. When it returns zero the worker pool is released, so a
// completed engine holds no goroutines. A panic in a thread body is
// re-raised here with its original value.
func (e *Engine) RunUntil(limit int64) int {
	if h := e.host; h != nil {
		if limit >= 0 {
			panic("sim: RunUntil with a virtual-time limit is sim-only")
		}
		h.wg.Wait()
		return 0
	}
	if e.started {
		panic("sim: Run called reentrantly")
	}
	e.started = true
	defer func() { e.started = false }()

	e.limit = limit
	for e.handoff(); !e.stopped; {
		e.cur.next()
	}
	if p := e.stopPanic; p != nil {
		e.stopPanic = nil
		panic(p)
	}
	if e.live == 0 {
		e.releasePool()
		return 0
	}
	return e.live
}

// Drain releases every thread still parked in the engine — the threads
// a limit-truncated RunUntil left behind — by unwinding their stacks,
// then shuts down the pooled worker coroutines. After Drain the engine
// holds no goroutines; it remains usable (new Spawns start fresh
// workers). It must not be called while Run is in progress, nor from a
// simulated thread.
func (e *Engine) Drain() {
	if e.host != nil {
		panic("sim: Drain is sim-only")
	}
	if e.started {
		panic("sim: Drain called during Run")
	}
	e.draining = true
	for _, t := range e.threads {
		if t.state == stateDone {
			continue
		}
		t.stop() // a parked body unwinds through drainSignal and retires
		if t.state != stateDone {
			e.retire(t, false) // spawned but never ran
		}
	}
	e.draining = false
	e.heap = e.heap[:0]
	e.cur = nil
	e.releasePool()
}

// releasePool ends the worker coroutines of all pooled done threads.
// Their structs stay registered; a later Spawn starts new workers.
func (e *Engine) releasePool() {
	for i, t := range e.free {
		t.stop()
		e.free[i] = nil
	}
	e.free = e.free[:0]
}

// Wake marks a blocked thread runnable no earlier than virtual time at.
// It must be called from a running thread (or the event path of one);
// the engine's serialization makes it safe.
func (e *Engine) Wake(t *Thread, at int64) {
	if e.host != nil {
		// Grant/wake times are virtual-time modeling artifacts; on the
		// host the waiter simply becomes runnable now.
		t.hostWake()
		return
	}
	if t.state != stateBlocked {
		panic("sim: Wake of " + t.name + " in state " + t.state.String())
	}
	if at > t.vt {
		t.vt = at
	}
	e.push(t)
}

// push marks t ready and inserts it into the scheduler heap.
func (e *Engine) push(t *Thread) {
	t.state = stateReady
	e.pushCtr++
	t.pushSeq = e.pushCtr
	e.heap = append(e.heap, t)
	i := len(e.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !threadLess(e.heap[i], e.heap[p]) {
			break
		}
		e.heap[i], e.heap[p] = e.heap[p], e.heap[i]
		i = p
	}
}

func (e *Engine) pop() *Thread {
	n := len(e.heap)
	if n == 0 {
		return nil
	}
	t := e.heap[0]
	e.heap[0] = e.heap[n-1]
	e.heap[n-1] = nil
	e.heap = e.heap[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && threadLess(e.heap[l], e.heap[m]) {
			m = l
		}
		if r < n && threadLess(e.heap[r], e.heap[m]) {
			m = r
		}
		if m == i {
			break
		}
		e.heap[i], e.heap[m] = e.heap[m], e.heap[i]
		i = m
	}
	return t
}

func threadLess(a, b *Thread) bool {
	if a.vt != b.vt {
		return a.vt < b.vt
	}
	return a.pushSeq < b.pushSeq
}

func (e *Engine) dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "virtual time %d ns, %d live threads\n", e.now, e.live)
	var lines []string
	for _, t := range e.threads {
		if t.state == stateDone {
			continue
		}
		reason := t.blockReason
		if t.blockOn != "" {
			reason += " " + t.blockOn
		}
		lines = append(lines, fmt.Sprintf("  %-24s proc=%d vt=%d state=%s reason=%s",
			t.name, t.Proc, t.vt, t.state, reason))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// ---- Thread operations ----

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// Engine returns the owning engine.
func (t *Thread) Engine() *Engine { return t.eng }

// Rand returns the thread's private PRNG.
func (t *Thread) Rand() *Rand { return &t.rng }

// Now returns the thread's local virtual clock. Between Syncs it may run
// ahead of Engine.Now. On the host backend it is the monotonic clock.
func (t *Thread) Now() int64 {
	if h := t.eng.host; h != nil {
		return h.now()
	}
	return t.vt
}

// Charge advances the thread's virtual clock by ns of work. On the host
// backend time is not modeled — it elapses — so Charge is a no-op.
func (t *Thread) Charge(ns int64) {
	if t.eng.host != nil {
		return
	}
	if ns > 0 {
		t.vt += ns
	}
}

// ChargeRand charges ns with the model's jitter applied.
func (t *Thread) ChargeRand(ns int64) {
	if t.eng.host != nil {
		return
	}
	t.Charge(t.rng.Jitter(ns, t.eng.C.JitterFrac))
}

// ChargeBytes charges per-byte work at rate ns/byte.
func (t *Thread) ChargeBytes(rate float64, n int) {
	t.Charge(cost.Bytes(rate, n))
}

// yield gives up control: the thread records its own state and makes
// the next scheduling decision itself. When it is still the
// minimum-clock runnable thread it just keeps running — without even
// touching the heap when it is strictly ahead of every other runnable
// thread (a tie goes to the earlier push, so it must queue). Otherwise
// it parks and the driver resumes the chosen thread.
func (t *Thread) yield(s threadState) {
	e := t.eng
	if e.draining {
		// Drain is unwinding this stack; a deferred function tried to
		// park again (lock handoff, Sync in a cleanup path). Keep
		// unwinding.
		panic(drainSignal{})
	}
	t.state = s
	if s == stateReady && (len(e.heap) == 0 || t.vt < e.heap[0].vt) && (e.limit < 0 || t.vt <= e.limit) {
		e.dispatch(t)
		return
	}
	if s == stateReady {
		e.push(t)
	}
	if !e.step(t) && !t.park(struct{}{}) {
		panic(drainSignal{}) // stopped by Drain while parked
	}
}

// Sync parks the thread until it holds the minimum virtual time among
// runnable threads. On return it is safe to operate on shared simulation
// state: all events before this thread's clock have already executed.
// On the host backend there is no serialization to wait for: shared
// state must be protected by locks or atomics, and Sync is a no-op.
func (t *Thread) Sync() {
	if t.eng.host != nil {
		return
	}
	t.yield(stateReady)
}

// Block parks the thread until another thread calls Engine.Wake on it.
// reason appears in deadlock dumps.
func (t *Thread) Block(reason string) { t.block(reason, "") }

// block is Block for a wait on a named object: the dump shows reason
// and on, which are joined only if the dump is taken.
func (t *Thread) block(reason, on string) {
	t.blockReason, t.blockOn = reason, on
	if t.eng.host != nil {
		<-t.resume
	} else {
		t.yield(stateBlocked)
	}
	t.blockReason, t.blockOn = "", ""
}

// Sleep advances the clock by d and parks until the engine catches up.
// On the host backend it sleeps for d real nanoseconds.
func (t *Thread) Sleep(d int64) {
	if t.eng.host != nil {
		if d > 0 {
			time.Sleep(time.Duration(d))
		}
		return
	}
	t.Charge(d)
	t.Sync()
}

// SleepUntil parks the thread until virtual time at (no-op if already
// past). On the host backend, at is a monotonic-clock deadline.
func (t *Thread) SleepUntil(at int64) {
	if h := t.eng.host; h != nil {
		if d := at - h.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		return
	}
	if at > t.vt {
		t.vt = at
	}
	t.Sync()
}

// Yield models an explicit processor yield (sched_yield): the send-side
// test threads yield after every packet, as described in Section 3. On
// the host backend it is a real scheduler yield.
func (t *Thread) Yield() {
	if t.eng.host != nil {
		runtime.Gosched()
		return
	}
	t.Charge(t.eng.C.Stack.Yield)
	t.Sync()
}

// Interfere charges the occasional large delay a thread suffers from
// cache/TLB interference or stray OS activity: with probability
// Model.InterfereProb it loses uniform(0, Model.InterfereMax) virtual ns.
// Drivers invoke it while a packet is carried up the stack; the ordered
// application invokes it between the transport and the ticket wait.
func (t *Thread) Interfere() {
	if t.eng.host != nil {
		return // real interference happens on its own
	}
	m := t.eng.C
	if m.InterfereProb > 0 && t.rng.Float64() < m.InterfereProb {
		t.Charge(int64(t.rng.Uint64() % uint64(m.InterfereMax)))
	}
}

// MigrateTo moves an unwired thread to another processor, paying the
// cache-affinity penalty.
func (t *Thread) MigrateTo(proc int) {
	if proc == t.Proc {
		return
	}
	t.Proc = proc
	if t.eng.host != nil {
		return // affinity penalties are the host scheduler's business
	}
	t.ChargeRand(t.eng.C.Stack.Migrate)
}
