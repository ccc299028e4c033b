package sim

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cost"
)

// Host-backend tests: real goroutines, so each uses at most four
// threads and relies on the race detector (go test -race) to catch any
// access the primitives fail to order.

func newHostEngine(seed uint64) *Engine {
	return NewBackend(cost.NewModel(cost.Challenge100), seed, BackendHost)
}

func TestHostLocksExclude(t *testing.T) {
	const threads, iters = 4, 2000
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := newHostEngine(1)
			l := NewLock(kind, "h")
			counter := 0 // plain int: only the lock orders its updates
			for i := 0; i < threads; i++ {
				e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
					for j := 0; j < iters; j++ {
						l.Acquire(th)
						counter++
						l.Release(th)
					}
				})
			}
			e.Run()
			if counter != threads*iters {
				t.Fatalf("counter = %d, want %d", counter, threads*iters)
			}
			s := l.Stats()
			if s.Acquires != threads*iters {
				t.Errorf("Acquires = %d, want %d", s.Acquires, threads*iters)
			}
			if s.Contended > s.Acquires || s.MaxWaiters > threads {
				t.Errorf("stats out of range: %+v", s)
			}
		})
	}
}

func TestHostReleaseByNonHolderPanics(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := newHostEngine(2)
			l := NewLock(kind, "h")
			// release tries to release l from a fresh thread and
			// returns what it panicked with.
			release := func() any {
				var r any
				done := make(chan struct{})
				e.Spawn("intruder", 1, func(th *Thread) {
					defer close(done)
					defer func() { r = recover() }()
					l.Release(th)
				})
				<-done
				return r
			}
			var whileHeld, whileFree any
			e.Spawn("holder", 0, func(th *Thread) {
				l.Acquire(th)
				whileHeld = release()
				l.Release(th)
				whileFree = release()
			})
			e.Run()
			if whileHeld == nil || whileFree == nil {
				t.Fatalf("non-holder release did not panic (held: %v, free: %v)", whileHeld, whileFree)
			}
			if s := l.Stats(); s.Acquires != 1 {
				t.Errorf("Acquires = %d, want 1", s.Acquires)
			}
		})
	}
}

func TestHostCondWakesEveryWaiter(t *testing.T) {
	const waiters = 3
	for _, kind := range allKinds {
		for _, broadcast := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/broadcast=%v", kind, broadcast), func(t *testing.T) {
				e := newHostEngine(3)
				l := NewLock(kind, "c")
				c := &Cond{L: l}
				parked, woken, open := 0, 0, false
				for i := 0; i < waiters; i++ {
					e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
						l.Acquire(th)
						parked++
						for !open {
							c.Wait(th, "gate")
						}
						woken++
						l.Release(th)
					})
				}
				e.Spawn("opener", waiters, func(th *Thread) {
					// Wait until every waiter is registered: each one
					// counts itself and is in c's list before it drops
					// the lock inside Wait.
					for l.Acquire(th); parked < waiters; l.Acquire(th) {
						l.Release(th)
						runtime.Gosched()
					}
					open = true
					if broadcast {
						c.Broadcast(th)
					} else {
						for i := 0; i < waiters; i++ {
							c.Signal(th)
						}
					}
					l.Release(th)
				})
				e.Run()
				if woken != waiters {
					t.Fatalf("woken = %d, want %d", woken, waiters)
				}
			})
		}
	}
}

func TestHostSequencerServesInTicketOrder(t *testing.T) {
	const threads, iters = 4, 200
	e := newHostEngine(4)
	var seq Sequencer
	var served []uint64 // appended only by the thread being served
	for i := 0; i < threads; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			for j := 0; j < iters; j++ {
				k := seq.Ticket(th)
				seq.Wait(th, k)
				served = append(served, k)
				seq.Done(th)
			}
		})
	}
	e.Run()
	if len(served) != threads*iters {
		t.Fatalf("served %d tickets, want %d", len(served), threads*iters)
	}
	for i, k := range served {
		if k != uint64(i) {
			t.Fatalf("ticket %d served at position %d", k, i)
		}
	}
}
