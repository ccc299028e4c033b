package sim

// Schedule pinning: the engine's decision log for one fixed mixed
// scenario is compared against a golden file, so any change to how the
// engine transfers control is proven not to change what it decides.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// mixedSchedule runs a scenario that touches every scheduling path:
// Mutex, MCS and ticket contention, a Sequencer, a Cond producer and
// consumer, Spawn from a running thread (with pooled-struct reuse), and
// a limit-truncated RunUntil followed by a second RunUntil. It returns
// the Engine.Trace decision log interleaved with the threads' own
// observations.
func mixedSchedule() string {
	e := newTestEngine(2024)
	var b strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}
	e.Trace = func(s string) { logf("%s", s) }

	var mtx Mutex
	var mcs MCSLock
	var tkt TicketLock
	mtx.Name, mcs.Name, tkt.Name = "mtx", "mcs", "tkt"
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), i, func(th *Thread) {
			for j := 0; j < 4; j++ {
				th.ChargeRand(300)
				tkt.Acquire(th)
				th.Charge(1000)
				tkt.Release(th)
				mcs.Acquire(th)
				th.ChargeRand(1200)
				mcs.Release(th)
				mtx.Acquire(th)
				th.Charge(900)
				mtx.Release(th)
				th.Interfere()
				th.Yield()
			}
		})
	}

	// Tickets are drawn in mutex order and served in ticket order.
	var seq Sequencer
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("s%d", i), 7+i, func(th *Thread) {
			for j := 0; j < 3; j++ {
				mtx.Acquire(th)
				k := seq.Ticket(th)
				mtx.Release(th)
				th.ChargeRand(2000)
				seq.Wait(th, k)
				logf("%s ticket %d at %d", th.Name(), k, th.Now())
				seq.Done(th)
			}
		})
	}

	var qmu Mutex
	qmu.Name = "queue"
	cond := Cond{L: &qmu}
	queue := 0
	e.Spawn("consumer", 3, func(th *Thread) {
		for got := 0; got < 6; got++ {
			qmu.Acquire(th)
			for queue == 0 {
				cond.Wait(th, "empty")
			}
			queue--
			logf("consumer took item %d at %d", got, th.Now())
			qmu.Release(th)
		}
	})
	e.Spawn("producer", 4, func(th *Thread) {
		for i := 0; i < 6; i++ {
			th.Sleep(2500)
			qmu.Acquire(th)
			queue++
			if i%2 == 0 {
				cond.Signal(th)
			} else {
				cond.Broadcast(th)
			}
			qmu.Release(th)
		}
	})

	// Each child spawns its successor before exiting, so later
	// generations reuse retired thread structs.
	var child func(gen int) func(*Thread)
	child = func(gen int) func(*Thread) {
		return func(th *Thread) {
			th.ChargeRand(1500)
			th.Sync()
			logf("%s gen %d at %d", th.Name(), gen, th.Now())
			if gen < 5 {
				e.Spawn(fmt.Sprintf("child%d", gen+1), 5+gen%2, child(gen+1))
			}
		}
	}
	e.Spawn("spawner", 5, func(th *Thread) {
		th.Sleep(3000)
		e.Spawn("child1", 6, child(1))
		th.Sleep(4000)
	})

	live := e.RunUntil(12_000)
	logf("RunUntil(12000) = %d live at %d", live, e.Now())
	live = e.RunUntil(-1)
	logf("RunUntil(-1) = %d live at %d", live, e.Now())
	for _, l := range []Locker{&mtx, &mcs, &tkt, &qmu} {
		logf("%+v", l.Stats())
	}
	return b.String()
}

// TestScheduleGolden pins the exact decision log of mixedSchedule. A
// diff means the engine now schedules differently; rerun with -update
// only if that change is intended.
func TestScheduleGolden(t *testing.T) {
	got := mixedSchedule()
	if again := mixedSchedule(); again != got {
		t.Fatal("mixedSchedule is not deterministic across runs")
	}
	path := filepath.Join("testdata", "schedule_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("schedule drifted from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("schedule drifted from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestThreadPanicReachesRunCaller checks that a panic in a thread body
// is re-raised on the RunUntil caller with its original value, and that
// the engine stays usable: the other threads are still held, and the
// panicked thread's struct is not handed to a later Spawn.
func TestThreadPanicReachesRunCaller(t *testing.T) {
	type boom struct{ n int }
	e := newTestEngine(11)
	e.Spawn("bystander", 0, spinForever)
	e.Spawn("faulty", 1, func(th *Thread) {
		th.Sleep(500)
		panic(boom{7})
	})
	func() {
		defer func() {
			if r := recover(); r != (boom{7}) {
				t.Fatalf("recovered %#v, want boom{7}", r)
			}
		}()
		e.Run()
		t.Fatal("Run returned without re-raising the thread panic")
	}()
	ran := false
	e.Spawn("after", 2, func(th *Thread) { ran = true })
	if left := e.RunUntil(1000); left != 1 || !ran {
		t.Fatalf("RunUntil after panic = %d live threads (want 1), spawned thread ran = %v", left, ran)
	}
	e.Drain()
}

// TestDrainNeverRunThreads checks that Drain releases threads that were
// spawned but never ran: fresh ones, and a pooled struct that Spawn has
// reassigned but the scheduler has not yet resumed.
func TestDrainNeverRunThreads(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	idle := func(th *Thread) { t.Errorf("%s ran", th.Name()) }

	e := newTestEngine(12)
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("idle%d", i), i, idle)
	}
	e.Drain()
	if e.live != 0 {
		t.Fatalf("%d threads still live after Drain", e.live)
	}
	waitGoroutines(t, base)

	e.Spawn("spin", 0, spinForever)
	e.Spawn("done", 1, func(th *Thread) { th.Charge(5) })
	if left := e.RunUntil(1000); left != 1 {
		t.Fatalf("RunUntil = %d live threads, want 1", left)
	}
	n := len(e.threads)
	e.Spawn("idle", 1, idle)
	if len(e.threads) != n {
		t.Fatal("Spawn after a truncated run did not reuse the retired struct")
	}
	e.Drain()
	if e.live != 0 {
		t.Fatalf("%d threads still live after Drain", e.live)
	}
	waitGoroutines(t, base)
}
