package sim

// Host backend: the same Engine/Thread/Locker API executed on real
// goroutines, real atomics and the host monotonic clock instead of the
// virtual-time discrete-event scheduler.
//
// In host mode:
//
//   - Spawn starts one goroutine per thread. With pinning enabled
//     (SetHostPinning) the goroutine locks its OS thread and asks the
//     kernel to bind it to the CPU matching its logical proc
//     (best-effort; failures are ignored).
//   - Now() reads the host monotonic clock (ns since engine creation).
//   - Charge/ChargeRand/ChargeBytes/Sync/Interfere are no-ops: time is
//     not modeled, it elapses.
//   - The lock kinds keep their structural identities — Mutex is an
//     unfair compare-and-swap spin lock, MCSLock a FIFO queue lock that
//     parks waiters and hands off directly, TicketLock an atomic
//     ticket/serving pair — but record their events through the same
//     lockCore observer calls as in sim mode (acquired once per
//     acquisition, waited once per contended one, held once per
//     release), so LockStats read identically, in wall-clock ns. Each
//     call is made while the thread holds the lock; the counters are
//     atomic so a snapshot may be taken mid-run.
//   - A sync.Mutex that guards shared state on both backends
//     (MCSLock.mu, Cond.mu, Sequencer.mu, Engine.mu) is never held
//     across Sync, Block or any other yield: in sim mode a coroutine
//     parked while holding one would leave the next thread that wants
//     it blocking the engine's only running goroutine — a deadlock the
//     engine cannot detect.
//   - Run waits for every spawned goroutine to return. There is no
//     deadlock detector and no virtual-time limit; RunUntil with a
//     bound, and Drain, are simulation-only.
//
// Host runs are nondeterministic by nature. Determinism guards
// (byte-identical goldens, virtual-time telemetry, the flight recorder)
// apply only to sim mode; core.Build rejects the config knobs that
// require them.

import (
	"runtime"
	"sync"
	"time"
)

// Backend selects the execution substrate an Engine runs on.
type Backend int

const (
	// BackendSim is the deterministic virtual-time discrete-event
	// scheduler (the default; the paper's methodology).
	BackendSim Backend = iota
	// BackendHost runs threads as real goroutines with sync-based lock
	// implementations and the host monotonic clock.
	BackendHost
)

func (b Backend) String() string {
	switch b {
	case BackendSim:
		return "sim"
	case BackendHost:
		return "host"
	}
	return "invalid"
}

// hostEngine is the per-engine state of the host backend.
type hostEngine struct {
	epoch time.Time
	wg    sync.WaitGroup
	// pinMax: spawned threads with Proc < pinMax are pinned to their
	// logical CPU (0 disables pinning).
	pinMax int
}

func (h *hostEngine) now() int64 { return time.Since(h.epoch).Nanoseconds() }

// IsHost reports whether the engine runs on the host backend.
func (e *Engine) IsHost() bool { return e.host != nil }

// SetHostPinning asks the host backend to pin threads spawned on procs
// 0..nprocs-1 to the matching host CPU (modulo the CPU count),
// best-effort. No-op in sim mode.
func (e *Engine) SetHostPinning(nprocs int) {
	if e.host != nil {
		e.host.pinMax = nprocs
	}
}

// hostRun is the goroutine body behind a host-mode Thread. A panic in a
// host thread propagates and crashes the process with the real stack:
// with real concurrency there is no single driver to re-raise on, and a
// loud crash beats a hung WaitGroup.
func (h *hostEngine) run(t *Thread) {
	defer h.wg.Done()
	if t.Proc >= 0 && t.Proc < h.pinMax {
		runtime.LockOSThread()
		pinToCPU(t.Proc)
	}
	t.fn(t)
}

// hostWake makes a host-mode thread blocked in Thread.Block runnable.
// The resume channel has capacity 1, so a wake delivered between a
// waiter's registration and its Block is buffered, not lost.
func (t *Thread) hostWake() {
	select {
	case t.resume <- struct{}{}:
	default:
	}
}

// hostSpin backs off progressively inside host spin loops: brief busy
// spinning, then cooperative yields, then short sleeps so oversubscribed
// CI runners still make progress.
func hostSpin(spins int) {
	switch {
	case spins < 64:
		// busy spin
	case spins < 4096:
		runtime.Gosched()
	default:
		time.Sleep(10 * time.Microsecond)
	}
}

// granted records, on the host backend, that t has just taken the lock
// after trying since start behind queued waiters, itself included (0
// and start unread when the lock was free).
func (c *lockCore) granted(t *Thread, name string, start int64, queued int) {
	c.acquired(t, queued)
	if queued > 0 {
		// Who held the lock when the wait began is not tracked on the
		// host: reading it would race with the handoff.
		c.waited(t, name, start, -1)
	}
	c.since = t.Now()
}

// endHold ends t's hold of a spinning host lock (Mutex, TicketLock);
// the caller then frees the lock word.
func (c *lockCore) endHold(t *Thread, kind LockKind, name string) {
	c.checkHolder(t, kind, name)
	c.held(t, name)
	c.holder = nil
}

// ---- host Mutex: unfair CAS spin lock ----

// hostAcquire spins on the lock word with compare-and-swap. Like the
// simulated test-and-set lock it is deliberately unfair — whichever
// spinner's CAS lands first wins — so the reordering phenomenology the
// paper studies survives the backend swap.
func (m *Mutex) hostAcquire(t *Thread) {
	var start int64
	queued := 0
	if !m.word.CompareAndSwap(0, 1) {
		start = t.Now()
		queued = int(m.spinning.Add(1))
		for spins := 0; !m.word.CompareAndSwap(0, 1); spins++ {
			hostSpin(spins)
		}
		m.spinning.Add(-1)
	}
	m.holder = t
	m.granted(t, m.Name, start, queued)
}

func (m *Mutex) hostRelease(t *Thread) {
	m.endHold(t, KindMutex, m.Name)
	m.word.Store(0)
}

// ---- host MCSLock: FIFO parking with direct handoff ----

// hostAcquire takes the lock if it is free, else queues and parks on
// the thread's resume channel until the releaser makes it the holder,
// so grants are strictly FIFO like the simulated MCS lock. mu guards
// holder and queue and is never held across the park.
func (m *MCSLock) hostAcquire(t *Thread) {
	var start int64
	queued := 0
	m.mu.Lock()
	if m.holder == nil {
		m.holder = t
	} else {
		start = t.Now()
		m.queue = append(m.queue, t)
		queued = len(m.queue)
	}
	m.mu.Unlock()
	if queued > 0 {
		t.block(KindMCS.String(), m.Name)
	}
	m.granted(t, m.Name, start, queued)
}

func (m *MCSLock) hostRelease(t *Thread) {
	m.mu.Lock()
	if m.holder != t {
		m.mu.Unlock()
		panic(nonHolder(t, KindMCS, m.Name))
	}
	m.held(t, m.Name)
	var w *Thread
	if len(m.queue) > 0 {
		w = takeAt(&m.queue, 0)
	}
	m.holder = w
	m.mu.Unlock()
	if w != nil {
		w.hostWake()
	}
}

// ---- host TicketLock: atomic ticket/serving pair ----

func (l *TicketLock) hostAcquire(t *Thread) {
	var start int64
	ticket := l.next.Add(1) - 1
	queued := int(ticket - l.serving.Load())
	if queued > 0 {
		start = t.Now()
		for spins := 0; l.serving.Load() != ticket; spins++ {
			hostSpin(spins)
		}
	}
	l.holder = t
	l.granted(t, l.Name, start, queued)
}

func (l *TicketLock) hostRelease(t *Thread) {
	l.endHold(t, KindTicket, l.Name)
	l.serving.Add(1)
}
