package sim

// Simulated locks. Contention, probe timing and coherence penalties are
// modeled explicitly so that the ordering phenomena the paper studies —
// unfair locks reordering contending threads, FIFO MCS locks preserving
// order — emerge from the same mechanisms as on real hardware.
//
// The three kinds share one core (lockCore): its state, its sim-mode
// acquire/release skeleton, and the three observer methods that record
// every lock event. A kind supplies only its acquire charge, how the
// next holder is picked and when it is granted, and its host-backend
// mechanism (host.go).

import (
	"sync"
	"sync/atomic"
)

// Locker is the interface shared by all simulated lock kinds.
type Locker interface {
	Acquire(t *Thread)
	Release(t *Thread)
	Stats() LockStats
}

// LockStats accumulates contention statistics, the stand-in for the
// paper's Pixie profiles ("90 percent of the time is spent waiting to
// acquire the TCP connection state lock").
type LockStats struct {
	Acquires   int64
	Contended  int64
	WaitNs     int64 // total virtual ns spent blocked on this lock
	HoldNs     int64 // total virtual ns the lock was held
	MaxWaiters int
}

// WaitFraction returns waiting time as a fraction of total virtual time
// elapsed, the figure the paper quotes from its profiles.
func (s LockStats) WaitFraction(totalNs int64) float64 {
	if totalNs <= 0 {
		return 0
	}
	return float64(s.WaitNs) / float64(totalNs)
}

// lineOwner is the processor that last touched a shared cache line,
// stored as proc+1 so that the zero value means "untouched".
type lineOwner int32

// touch charges t a coherence penalty when the line was last touched by
// another processor, and moves the line to t's processor. Sync-bus
// machines do not pay this for synchronization traffic; on the host
// backend coherence is real and touch does nothing.
func (o *lineOwner) touch(t *Thread) {
	if t.eng.host != nil {
		return
	}
	s := &t.eng.C.Sync
	if !s.SyncBus && *o != 0 && *o != lineOwner(t.Proc+1) {
		t.Charge(s.Coherence)
	}
	*o = lineOwner(t.Proc + 1)
}

// takeAt removes and returns (*q)[i], keeping the order of the rest
// and reusing the backing array, so a steady queue never reallocates.
func takeAt(q *[]*Thread, i int) *Thread {
	s := *q
	w := s[i]
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	*q = s[:len(s)-1]
	return w
}

// lockCore is the state every lock kind embeds. Its observer methods —
// acquired, waited and held — are the only code that records lock
// events: into the statistics, the flight recorder (Engine.Rec) and the
// telemetry sampler (Engine.Tel). Both backends call them. The counters
// are atomic so host-backend code may snapshot Stats mid-run.
type lockCore struct {
	holder *Thread
	since  int64 // when holder was granted the lock
	line   lineOwner
	// queue holds the waiters in arrival order: those of every kind in
	// sim mode, MCSLock's parked waiters on the host backend. A
	// waiter's start time and the holder it waited behind live on its
	// own stack.
	queue []*Thread

	maxWaiters                          atomic.Int32
	acquires, contended, waitNs, holdNs atomic.Int64
}

// acquired records one acquisition by t. queued is the number of
// waiters, t included, when t had to queue, or 0 when the lock was
// free.
func (c *lockCore) acquired(t *Thread, queued int) {
	c.acquires.Add(1)
	t.eng.Tel.LockAcquire(t.Proc)
	if queued == 0 {
		return
	}
	c.contended.Add(1)
	for n := int32(queued); ; {
		old := c.maxWaiters.Load()
		if n <= old || c.maxWaiters.CompareAndSwap(old, n) {
			return
		}
	}
}

// waited records the wait t began at start, behind a holder on
// holderProc (-1 if unknown), now that t holds the lock.
func (c *lockCore) waited(t *Thread, name string, start int64, holderProc int) {
	wait := t.Now() - start
	c.waitNs.Add(wait)
	t.eng.Rec.LockWait(t.Proc, name, start, wait, holderProc)
	t.eng.Tel.LockWait(t.Proc, name, wait, holderProc)
}

// held records the hold that t, the holder, is about to end.
func (c *lockCore) held(t *Thread, name string) {
	hold := t.Now() - c.since
	c.holdNs.Add(hold)
	t.eng.Rec.LockHold(t.Proc, name, c.since, hold)
	t.eng.Tel.LockHold(t.Proc, hold)
}

// Stats returns a snapshot of the accumulated statistics.
func (c *lockCore) Stats() LockStats {
	return LockStats{
		Acquires:   c.acquires.Load(),
		Contended:  c.contended.Load(),
		WaitNs:     c.waitNs.Load(),
		HoldNs:     c.holdNs.Load(),
		MaxWaiters: int(c.maxWaiters.Load()),
	}
}

// checkHolder panics unless t holds the lock.
func (c *lockCore) checkHolder(t *Thread, kind LockKind, name string) {
	if c.holder != t {
		panic(nonHolder(t, kind, name))
	}
}

func nonHolder(t *Thread, kind LockKind, name string) string {
	return "sim: " + kind.String() + " " + name + " released by non-holder " + t.name
}

// simAcquire is the sim-mode acquire of every kind. charge is the
// kind's atomic step on the lock word.
func (c *lockCore) simAcquire(t *Thread, kind LockKind, name string, charge int64) {
	t.Sync()
	s := &t.eng.C.Sync
	t.ChargeRand(charge)
	c.line.touch(t)
	if c.holder == nil {
		c.acquired(t, 0)
		c.holder = t
		c.since = t.Now()
		t.Charge(s.LockEnter)
		return
	}
	if kind == KindMutex {
		// The spinner's first backoff gap. Its value is unused: the
		// winner's probe delay is drawn at release. The draw stays
		// because dropping it would shift every later draw from this
		// thread's random stream, and so every simulated result.
		t.rng.Jitter(s.BackoffMin, t.eng.C.JitterFrac)
	}
	start, holderProc := t.Now(), c.holder.Proc
	c.queue = append(c.queue, t)
	c.acquired(t, len(c.queue))
	t.block(kind.String(), name)
	// The releaser has made t the holder and set its grant time.
	c.waited(t, name, start, holderProc)
	t.Charge(s.LockEnter)
}

// simRelease is the sim-mode release of every kind: the lock goes to
// the kind's chosen waiter at the kind's grant time, or becomes free.
func (c *lockCore) simRelease(t *Thread, kind LockKind, name string) {
	t.Sync()
	c.checkHolder(t, kind, name)
	s := &t.eng.C.Sync
	t.Charge(s.LockExit)
	c.held(t, name)
	if len(c.queue) == 0 {
		c.holder = nil
		return
	}
	var w *Thread
	grantAt := t.Now()
	if kind == KindMutex {
		// Bus arbitration: a random spinner among the few
		// longest-waiting ones wins the race for the freed lock word
		// (newer arrivals are still settling into their spin loops).
		// Its probe lands within one backoff gap of the release.
		w = takeAt(&c.queue, t.rng.Intn(min(max(s.ArbWindow, 1), len(c.queue))))
		grantAt += int64(w.rng.Uint64()%uint64(max(s.BackoffMin, 1))) + s.LockProbe
		if !s.SyncBus && w.Proc != t.Proc {
			grantAt += s.Coherence
		}
	} else {
		// FIFO: the queue head. A ticket lock's handoff invalidates the
		// now-serving counter in every remaining spinner's cache.
		w = takeAt(&c.queue, 0)
		grantAt += s.Handoff
		if kind == KindTicket && !s.SyncBus {
			grantAt += s.Coherence * int64(len(c.queue))
		}
	}
	c.holder = w
	c.since = grantAt
	c.line = lineOwner(w.Proc + 1)
	t.eng.Wake(w, grantAt)
}

// ---- Mutex: unfair test-and-set lock with exponential backoff ----

// Mutex models the raw IRIX mutex of the paper: a test-and-set spin
// lock. It is not FIFO: all waiters spin on the lock word, and when it
// is released the cache/bus arbitration decides which spinner's
// test-and-set lands first — effectively a uniformly random waiter, not
// the longest-waiting one. Under light contention (zero or one waiter)
// grants still happen in arrival order, so misordering stays rare; once
// the lock saturates and several threads queue up, random grants
// reorder threads, and therefore packets, increasingly often — exactly
// the gradual ramp of the paper's Table 1.
type Mutex struct {
	Name string
	lockCore

	// word and spinning are the host backend's lock word and spinner
	// count (see host.go); unused in sim mode.
	word, spinning atomic.Int32
}

// Acquire blocks until the calling thread holds the lock.
func (m *Mutex) Acquire(t *Thread) {
	if t.eng.host != nil {
		m.hostAcquire(t)
		return
	}
	m.simAcquire(t, KindMutex, m.Name, t.eng.C.Sync.LockProbe)
}

// Release unlocks; if waiters exist, one of the longest-waiting
// spinners is granted ownership directly.
func (m *Mutex) Release(t *Thread) {
	if t.eng.host != nil {
		m.hostRelease(t)
		return
	}
	m.simRelease(t, KindMutex, m.Name)
}

// ---- MCSLock: FIFO queue lock (Mellor-Crummey & Scott) ----

// MCSLock models the MCS list-based queueing lock the paper built from
// R4000 load-linked/store-conditional: strictly FIFO, each waiter spins
// on its own cache line, handoff costs one line transfer.
type MCSLock struct {
	Name string
	lockCore

	// mu guards holder and queue on the host backend (see host.go);
	// unused in sim mode.
	mu sync.Mutex
}

// Acquire enqueues FIFO and blocks until granted.
func (m *MCSLock) Acquire(t *Thread) {
	if t.eng.host != nil {
		m.hostAcquire(t)
		return
	}
	m.simAcquire(t, KindMCS, m.Name, t.eng.C.Sync.MCSSwap)
}

// Release hands the lock to the queue head, if any.
func (m *MCSLock) Release(t *Thread) {
	if t.eng.host != nil {
		m.hostRelease(t)
		return
	}
	m.simRelease(t, KindMCS, m.Name)
}

// ---- TicketLock: FIFO, but all waiters spin on one counter ----

// TicketLock is the other classic FIFO lock, kept for ablation against
// MCS: handoff invalidates the now-serving counter in every waiter's
// cache, so its cost grows with the number of waiters.
type TicketLock struct {
	Name string
	lockCore

	// next and serving are the host backend's ticket pair (see
	// host.go); unused in sim mode.
	next, serving atomic.Int64
}

// Acquire takes a ticket (FIFO) and blocks until served.
func (l *TicketLock) Acquire(t *Thread) {
	if t.eng.host != nil {
		l.hostAcquire(t)
		return
	}
	// The charge is the fetch-and-increment of the ticket counter.
	l.simAcquire(t, KindTicket, l.Name, t.eng.C.Sync.Atomic)
}

// Release serves the next ticket holder; the invalidation broadcast
// charges the winner in proportion to the spinning crowd.
func (l *TicketLock) Release(t *Thread) {
	if t.eng.host != nil {
		l.hostRelease(t)
		return
	}
	l.simRelease(t, KindTicket, l.Name)
}

// LockKind selects a lock implementation for protocol state.
type LockKind int

const (
	// KindMutex is the raw unfair spin lock (IRIX mutex).
	KindMutex LockKind = iota
	// KindMCS is the FIFO MCS queue lock.
	KindMCS
	// KindTicket is the FIFO ticket lock (ablation only).
	KindTicket
)

func (k LockKind) String() string {
	switch k {
	case KindMutex:
		return "mutex"
	case KindMCS:
		return "mcs"
	case KindTicket:
		return "ticket"
	}
	return "invalid"
}

// NewLock builds a lock of the given kind.
func NewLock(kind LockKind, name string) Locker {
	switch kind {
	case KindMutex:
		return &Mutex{Name: name}
	case KindMCS:
		return &MCSLock{Name: name}
	case KindTicket:
		return &TicketLock{Name: name}
	}
	panic("sim: unknown lock kind")
}
