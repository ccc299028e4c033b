package sim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// exerciseLock runs n threads each acquiring the lock iters times,
// verifying mutual exclusion, and returns the sequence of (thread id)
// critical-section entries.
func exerciseLock(t *testing.T, mk func() Locker, n, iters int, seed uint64) []int {
	t.Helper()
	e := New(cost.NewModel(cost.Challenge100), seed)
	l := mk()
	inside := false
	var order []int
	for i := 0; i < n; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			for j := 0; j < iters; j++ {
				th.ChargeRand(2000)
				l.Acquire(th)
				if inside {
					t.Errorf("mutual exclusion violated")
				}
				inside = true
				order = append(order, i)
				th.Charge(5000)
				inside = false
				l.Release(th)
			}
		})
	}
	e.Run()
	if len(order) != n*iters {
		t.Fatalf("entries = %d, want %d", len(order), n*iters)
	}
	return order
}

func TestMutexMutualExclusion(t *testing.T) {
	exerciseLock(t, func() Locker { return &Mutex{Name: "m"} }, 8, 50, 1)
}

func TestMCSMutualExclusion(t *testing.T) {
	exerciseLock(t, func() Locker { return &MCSLock{Name: "m"} }, 8, 50, 1)
}

func TestTicketMutualExclusion(t *testing.T) {
	exerciseLock(t, func() Locker { return &TicketLock{Name: "m"} }, 8, 50, 1)
}

// inversionCount counts how often a thread entered the critical section
// more than once while some other thread entered zero times in between —
// a cheap proxy for FIFO violations: with perfectly fair round-robin
// arrival patterns, consecutive duplicate entries indicate overtaking.
func consecutiveRepeats(order []int) int {
	r := 0
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			r++
		}
	}
	return r
}

func TestMCSIsFIFOUnderContention(t *testing.T) {
	// All waiters pile onto the lock; grants must be in arrival order.
	e := New(cost.NewModel(cost.Challenge100), 2)
	l := &MCSLock{Name: "m"}
	var grants []int
	var holder *Thread
	e.Spawn("holder", 0, func(th *Thread) {
		holder = th
		l.Acquire(th)
		th.Sleep(100000) // let all waiters queue up in a known order
		l.Release(th)
	})
	for i := 1; i <= 5; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			th.Sleep(int64(1000 * i)) // deterministic arrival order 1..5
			l.Acquire(th)
			grants = append(grants, i)
			th.Charge(1000)
			l.Release(th)
		})
	}
	e.Run()
	_ = holder
	for i, g := range grants {
		if g != i+1 {
			t.Fatalf("grants = %v, want FIFO 1..5", grants)
		}
	}
}

func TestMutexReordersUnderContention(t *testing.T) {
	// With heavy contention the unfair mutex must produce at least some
	// non-FIFO grants; the MCS lock under the identical workload must
	// produce strictly fewer overtakes. This is the microcosm of
	// Section 4 / Table 1.
	overtakes := func(mk func() Locker) int {
		e := New(cost.NewModel(cost.Challenge100), 7)
		l := mk()
		// Each worker tags its arrival with a global sequence; we
		// measure how far grant order deviates from arrival order.
		var arrival []int
		var grant []int
		seq := 0
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
				for j := 0; j < 60; j++ {
					th.ChargeRand(1500)
					th.Sync()
					my := seq
					seq++
					arrival = append(arrival, my)
					l.Acquire(th)
					grant = append(grant, my)
					th.Charge(20000) // long hold: guarantees queueing
					l.Release(th)
				}
			})
		}
		e.Run()
		inv := 0
		for i := 1; i < len(grant); i++ {
			if grant[i] < grant[i-1] {
				inv++
			}
		}
		return inv
	}
	mu := overtakes(func() Locker { return &Mutex{Name: "m"} })
	mcs := overtakes(func() Locker { return &MCSLock{Name: "m"} })
	if mu == 0 {
		t.Fatal("unfair mutex produced zero reordering under contention")
	}
	if mcs >= mu {
		t.Fatalf("MCS reordering (%d) not below mutex reordering (%d)", mcs, mu)
	}
}

func TestLockStats(t *testing.T) {
	e := New(cost.NewModel(cost.Challenge100), 3)
	l := &Mutex{Name: "m"}
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			for j := 0; j < 10; j++ {
				l.Acquire(th)
				th.Charge(10000)
				l.Release(th)
			}
		})
	}
	e.Run()
	s := l.Stats()
	if s.Acquires != 40 {
		t.Errorf("Acquires = %d, want 40", s.Acquires)
	}
	if s.Contended == 0 {
		t.Error("expected contention")
	}
	if s.WaitNs <= 0 {
		t.Error("expected nonzero wait time")
	}
	if s.HoldNs < 40*10000 {
		t.Errorf("HoldNs = %d, want >= 400000", s.HoldNs)
	}
	if f := s.WaitFraction(e.Now()); f <= 0 || f > 8 {
		t.Errorf("WaitFraction = %v out of range", f)
	}
}

func TestReleaseByNonHolderPanics(t *testing.T) {
	e := New(cost.NewModel(cost.Challenge100), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l := &Mutex{Name: "m"}
	e.Spawn("bad", 0, func(th *Thread) {
		l.Release(th)
	})
	e.Run()
}

func TestNewLockKinds(t *testing.T) {
	for _, k := range []LockKind{KindMutex, KindMCS, KindTicket} {
		l := NewLock(k, "x")
		if l == nil {
			t.Fatalf("NewLock(%v) = nil", k)
		}
		if k.String() == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
	}
}

func TestSyncBusMutexStillExcludes(t *testing.T) {
	e := New(cost.NewModel(cost.PowerSeries33), 5)
	l := &Mutex{Name: "m"}
	inside := false
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			for j := 0; j < 30; j++ {
				l.Acquire(th)
				if inside {
					t.Error("exclusion violated on sync bus")
				}
				inside = true
				th.Charge(4000)
				inside = false
				l.Release(th)
			}
		})
	}
	e.Run()
}

var allKinds = []LockKind{KindMutex, KindMCS, KindTicket}

// TestLockObserversAgree checks that each lock event reaches the
// statistics, the flight recorder and the telemetry sampler exactly
// once: the three views of a contended run must agree to the count and
// the nanosecond.
func TestLockObserversAgree(t *testing.T) {
	const procs, period = 4, 10_000
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			e := newTestEngine(12)
			e.Rec = trace.New(procs, 64)
			reg := telemetry.NewRegistry(4096)
			e.Tel = telemetry.NewSampler(reg, period, procs)
			l := NewLock(kind, "obs")
			for i := 0; i < procs; i++ {
				e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
					for j := 0; j < 50; j++ {
						th.ChargeRand(1000)
						l.Acquire(th)
						th.Charge(8000)
						l.Release(th)
					}
				})
			}
			e.Run()
			// Advance the clock past one more period boundary so the
			// sampler snapshots the final counter values.
			e.Spawn("tick", 0, func(th *Thread) { th.Sleep(2 * period) })
			e.Run()

			s := l.Stats()
			if s.Contended == 0 {
				t.Fatal("no contention")
			}
			h := e.Rec.WaitHistogram("obs")
			if h.Count() != s.Contended || h.Sum() != s.WaitNs {
				t.Errorf("recorder waits = %d / %d ns, stats = %d / %d ns",
					h.Count(), h.Sum(), s.Contended, s.WaitNs)
			}
			top := e.Tel.TopLocks(1)
			if len(top) != 1 || top[0].Name != "obs" || top[0].WaitNs != s.WaitNs || top[0].Contended != s.Contended {
				t.Errorf("sampler attribution = %+v, stats = %+v", top, s)
			}
			final := map[string]int64{}
			for _, se := range reg.Series() {
				if _, v := se.Samples(); len(v) > 0 {
					final[se.Name] += v[len(v)-1]
				}
			}
			if final["lock-acquires"] != s.Acquires || final["lock-wait-ns"] != s.WaitNs || final["lock-hold-ns"] != s.HoldNs {
				t.Errorf("per-proc counters sum to acquires %d, wait %d ns, hold %d ns; stats = %+v",
					final["lock-acquires"], final["lock-wait-ns"], final["lock-hold-ns"], s)
			}
		})
	}
}

// TestContendedAcquireDoesNotAllocate checks that waiting on a named
// lock costs no heap allocation: doubling the number of contended
// acquires must not add allocations beyond noise.
func TestContendedAcquireDoesNotAllocate(t *testing.T) {
	const threads = 4
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			var l Locker
			run := func(per int) float64 {
				return testing.AllocsPerRun(3, func() {
					e := newTestEngine(13)
					l = NewLock(kind, "named")
					for i := 0; i < threads; i++ {
						e.Spawn("w", i, func(th *Thread) {
							for j := 0; j < per; j++ {
								l.Acquire(th)
								th.Charge(5000)
								l.Release(th)
							}
						})
					}
					e.Run()
				})
			}
			short, long := run(1000), run(2000)
			if s := l.Stats(); 2*s.Contended < s.Acquires {
				t.Fatalf("only %d of %d acquires contended", s.Contended, s.Acquires)
			}
			extra := float64(threads * 1000)
			if grow := long - short; grow > extra/100 {
				t.Errorf("%v allocs for %v extra contended acquires (%.2f per acquire)", grow, extra, grow/extra)
			}
		})
	}
}

func TestDeadlockDumpNamesLocks(t *testing.T) {
	defer func() {
		r := fmt.Sprint(recover())
		for _, want := range []string{"deadlock", "mutex a", "mutex b"} {
			if !strings.Contains(r, want) {
				t.Errorf("dump lacks %q:\n%s", want, r)
			}
		}
	}()
	e := newTestEngine(14)
	a, b := &Mutex{Name: "a"}, &Mutex{Name: "b"}
	e.Spawn("ab", 0, func(th *Thread) {
		a.Acquire(th)
		th.Sleep(1000)
		b.Acquire(th)
	})
	e.Spawn("ba", 1, func(th *Thread) {
		b.Acquire(th)
		th.Sleep(1000)
		a.Acquire(th)
	})
	e.Run()
}
