package sim

// Higher-level synchronization objects built on the simulated locks:
// counting (recursive) locks for the map manager, reference counts in
// atomic or lock-based mode, the bakery sequencer used for order
// preservation above TCP, condition variables, and shared counters.
//
// The shared cells (Flag, Counter, RefCount, CountingLock ownership)
// use Go atomics. In sim mode the engine serializes execution so the
// atomics cost nothing extra and values stay deterministic; in host
// mode they are what makes concurrent access race-clean. Each
// operation has one body for both backends: virtual-time charging
// (Sync, Charge, lineOwner.touch) does nothing on the host backend.

import (
	"sync"
	"sync/atomic"
)

// CountingLock is the recursive lock the x-kernel map manager needs:
// mapForEach can call back into map operations on the same thread, so if
// the owner re-acquires, a count is incremented instead of deadlocking
// (Section 2.1).
type CountingLock struct {
	inner Locker
	owner atomic.Pointer[Thread]
	// depth is only touched by the current owner, under the inner
	// lock's happens-before edges.
	depth int
}

// NewCountingLock wraps a lock of the given kind.
func NewCountingLock(kind LockKind, name string) *CountingLock {
	return &CountingLock{inner: NewLock(kind, name)}
}

// Acquire takes the lock, or increments the count if t already owns it.
func (c *CountingLock) Acquire(t *Thread) {
	if c.owner.Load() == t {
		c.depth++
		return
	}
	c.inner.Acquire(t)
	c.owner.Store(t)
	c.depth = 1
}

// Release decrements the count, releasing the lock at zero.
func (c *CountingLock) Release(t *Thread) {
	if c.owner.Load() != t {
		panic("sim: CountingLock.Release by non-owner")
	}
	c.depth--
	if c.depth == 0 {
		c.owner.Store(nil)
		c.inner.Release(t)
	}
}

// Stats reports the inner lock's statistics.
func (c *CountingLock) Stats() LockStats { return c.inner.Stats() }

// RefMode selects how reference counts are manipulated (Section 5.2).
type RefMode int

const (
	// RefAtomic uses load-linked/store-conditional atomic increment
	// and decrement: one shared-line touch, no lock.
	RefAtomic RefMode = iota
	// RefLocked uses the classic lock-increment-unlock sequence.
	RefLocked
)

func (m RefMode) String() string {
	if m == RefAtomic {
		return "atomic"
	}
	return "locked"
}

// RefCount is a reference count on a shared object (MNodes, sessions,
// protocol state). In RefAtomic mode a manipulation charges a single
// LL/SC atomic op; in RefLocked mode it is a lock-increment-unlock
// sequence through the engine's finite pool of static global locks,
// paying the procedure-call and memory-write overhead the paper's
// Section 5.2 eliminates. Both modes pay coherence when the count
// bounces between processors.
type RefCount struct {
	mode RefMode
	v    atomic.Int32
	line lineOwner
	pool atomic.Pointer[Mutex]
}

// Init sets the mode and initial value. Must be called before use.
func (r *RefCount) Init(mode RefMode, v int32) {
	r.mode = mode
	r.v.Store(v)
	r.line = 0
	r.pool.Store(nil)
}

// lock resolves this count's static pool lock (assigned round-robin on
// first use, deterministically per engine in sim mode).
func (r *RefCount) lock(t *Thread) *Mutex {
	if p := r.pool.Load(); p != nil {
		return p
	}
	e := t.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	if p := r.pool.Load(); p != nil {
		return p // assigned by another host thread meanwhile
	}
	p := &e.refPool[e.refSeq%len(e.refPool)]
	e.refSeq++
	r.pool.Store(p)
	return p
}

// add applies delta and returns the new count.
func (r *RefCount) add(t *Thread, delta int32) int32 {
	if r.mode == RefAtomic {
		t.Sync()
		t.Charge(t.eng.C.Sync.Atomic)
		r.line.touch(t)
		return r.v.Add(delta)
	}
	lk := r.lock(t)
	lk.Acquire(t)
	t.Charge(t.eng.C.Sync.RefLockedWork)
	r.line.touch(t)
	nv := r.v.Add(delta)
	lk.Release(t)
	return nv
}

// Incr atomically increments the count.
func (r *RefCount) Incr(t *Thread) { r.add(t, 1) }

// Decr atomically decrements the count and reports whether it reached
// zero (the caller then frees the object).
func (r *RefCount) Decr(t *Thread) bool {
	nv := r.add(t, -1)
	if nv < 0 {
		panic("sim: RefCount underflow")
	}
	return nv == 0
}

// Value returns the current count.
func (r *RefCount) Value() int32 { return r.v.Load() }

// Sequencer implements the ticketing ("bakery") scheme of Section 4.2:
// a thread takes an up-ticket while still holding the connection state
// lock, releases the lock, and later waits for its ticket to be called at
// the point where the application requires order.
type Sequencer struct {
	// mu guards the fields below; it matters on the host backend,
	// where the engine does not serialize callers, and is never held
	// across Block.
	mu      sync.Mutex
	next    uint64
	serving uint64
	line    lineOwner
	waiters map[uint64]*Thread
}

// Ticket draws the next ticket (atomic fetch-and-increment).
func (s *Sequencer) Ticket(t *Thread) uint64 {
	t.Sync()
	t.Charge(t.eng.C.Sync.Atomic)
	s.line.touch(t)
	s.mu.Lock()
	n := s.next
	s.next++
	s.mu.Unlock()
	return n
}

// Wait blocks until ticket k is being served.
func (s *Sequencer) Wait(t *Thread, k uint64) {
	t.Sync()
	s.line.touch(t)
	s.mu.Lock()
	if k <= s.serving {
		served := k < s.serving
		s.mu.Unlock()
		if served {
			panic("sim: Sequencer ticket already served")
		}
		return
	}
	if s.waiters == nil {
		s.waiters = make(map[uint64]*Thread)
	}
	s.waiters[k] = t
	s.mu.Unlock()
	t.Block("sequencer")
}

// Done advances service to the next ticket and wakes its waiter, if
// parked.
func (s *Sequencer) Done(t *Thread) {
	t.Sync()
	t.Charge(t.eng.C.Sync.Atomic)
	s.line.touch(t)
	s.mu.Lock()
	s.serving++
	w, ok := s.waiters[s.serving]
	if ok {
		delete(s.waiters, s.serving)
	}
	s.mu.Unlock()
	if ok {
		t.eng.Wake(w, t.Now()+t.eng.C.Sync.Coherence)
	}
}

// Cond is a condition variable tied to a Locker, used for flow-control
// blocking (a TCP sender waiting for window space). Callers hold L
// around Wait/Signal/Broadcast (as condition variables require); mu
// additionally guards the waiter list on the host backend, so a wake
// delivered between release and park is buffered, not lost. mu is
// never held across Block.
type Cond struct {
	L       Locker
	mu      sync.Mutex
	waiters []*Thread
}

// Wait atomically releases the lock and blocks; on wakeup the lock is
// re-acquired before returning. reason appears in deadlock dumps.
// Callers must re-check their predicate in a loop: host-mode wakeups
// can be spurious with respect to the predicate.
func (c *Cond) Wait(t *Thread, reason string) {
	c.mu.Lock()
	c.waiters = append(c.waiters, t)
	c.mu.Unlock()
	c.L.Release(t)
	t.Block(reason)
	c.L.Acquire(t)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *Thread) {
	c.mu.Lock()
	if len(c.waiters) > 0 {
		at := t.Now() + t.eng.C.Sync.Coherence
		for _, w := range c.waiters {
			t.eng.Wake(w, at)
		}
		clear(c.waiters)
		c.waiters = c.waiters[:0]
	}
	c.mu.Unlock()
}

// Signal wakes one waiter (FIFO).
func (c *Cond) Signal(t *Thread) {
	c.mu.Lock()
	if len(c.waiters) > 0 {
		t.eng.Wake(takeAt(&c.waiters, 0), t.Now()+t.eng.C.Sync.Coherence)
	}
	c.mu.Unlock()
}

// Counter is a shared cell updated with atomic fetch-and-add (sequence
// number allocation in the drivers, statistics that must be exact).
type Counter struct {
	v    atomic.Int64
	line lineOwner
}

// Add charges one atomic op and returns the *previous* value.
func (c *Counter) Add(t *Thread, delta int64) int64 {
	t.Sync()
	t.Charge(t.eng.C.Sync.Atomic)
	c.line.touch(t)
	return c.v.Add(delta) - delta
}

// Load returns the current value without synchronization cost.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store sets the value (setup/reset paths only).
func (c *Counter) Store(v int64) { c.v.Store(v) }

// Flag is a shared boolean checked with relaxed reads (stop flags).
type Flag struct{ v atomic.Bool }

// Set raises the flag.
func (f *Flag) Set() { f.v.Store(true) }

// Get reads the flag without synchronization cost.
func (f *Flag) Get() bool { return f.v.Load() }
