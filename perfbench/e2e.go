package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
)

// corePass is one untraced core.Build + Stack.Run pass.
type corePass struct {
	res  core.RunResult
	wall time.Duration // Build + Run
	// Whole-pass totals: packets and payload bytes delivered, and
	// packets lost to drops or checksum failures.
	pkts, bytes, lost int64
	st                *core.Stack
}

func runCore(cfg core.Config, warmupNs, windowNs int64) (corePass, error) {
	t0 := time.Now()
	st, err := core.Build(cfg)
	if err != nil {
		return corePass{}, err
	}
	res, err := st.Run(warmupNs, windowNs)
	p := corePass{res: res, wall: time.Since(t0), st: st, bytes: st.Bytes()}
	if err != nil {
		return p, err
	}
	switch {
	case st.UDP != nil:
		us := st.UDP.Stats()
		p.pkts = us.Delivered
		p.lost = us.NoPort + us.ChecksumBad + res.SteerDrops
	case cfg.Side == core.SideRecv:
		p.pkts = st.Sink.Packets()
	default:
		// The simulated peer consumes whole PacketSize segments.
		p.pkts = p.bytes / int64(cfg.PacketSize)
	}
	if st.TCP != nil {
		ts := st.TCP.Stats()
		p.lost = ts.Dropped + ts.ChecksumBad
	}
	return p, nil
}

// offered is the packets a pass offered in its measurement window.
func (p corePass) offered() int64 { return p.res.Packets + p.res.SteerDrops }

// setupSeconds times set-up-only passes (build, sessions, handshakes,
// teardown; no traffic window) for about budget, at least five of them,
// and returns the median. The passes' RunResult is discarded: its Mb/s
// is NaN for an empty window.
func setupSeconds(cfg core.Config, budget time.Duration) (float64, error) {
	var xs []float64
	start := time.Now()
	for len(xs) < 5 || (time.Since(start) < budget && len(xs) < 500) {
		t0 := time.Now()
		st, err := core.Build(cfg)
		if err != nil {
			return 0, err
		}
		if _, err := st.Run(0, 0); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// liveHeapMB forces a GC and returns the live Go heap in MiB; keep is
// held reachable across the collection.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runEndToEnd measures one workload's end-to-end metrics.
func runEndToEnd(w *workload, seed uint64, budget time.Duration, r *result) {
	if w.host {
		hostEndToEnd(w, seed, budget, r)
		return
	}
	cfg := w.cfg(seed)
	start := time.Now()
	setup, err := setupSeconds(cfg, budget/10)
	if err != nil {
		r.fail("%s set-up: %v", w.name, err)
		return
	}
	r.set("setup_s", setup, "s")

	// Timed passes cycle through the workload's seed set until the
	// budget is spent and every seed ran once. The host cost is the
	// median over all passes.
	set := newSeedSet(w, cfg)
	var nsPerPkt, mbps []float64
	for i := 0; i < len(set.cfgs) || time.Since(start) < budget; i++ {
		k := i % len(set.cfgs)
		p, err := runCore(set.cfgs[k], w.warmupNs, w.windowNs)
		if err != nil {
			r.fail("%s pass %d: %v", w.name, i, err)
			return
		}
		r.Attempted += p.offered()
		r.Failed += p.lost
		traffic := p.wall.Seconds() - setup
		if p.pkts <= 0 || traffic <= 0 {
			r.fail("%s pass %d: %d packets in %.3f s of traffic", w.name, i, p.pkts, traffic)
			return
		}
		nsPerPkt = append(nsPerPkt, traffic*1e9/float64(p.pkts))
		mbps = append(mbps, float64(p.bytes)*8/traffic/1e6)
		set.add(k, p, r)
	}
	set.report(r)
	r.set("host_ns_per_pkt", median(nsPerPkt), "ns")
	r.set("host_mbps", median(mbps), "Mbit/s")
	fmt.Printf("%-17s %d timed passes over %d seeds\n", w.name, len(nsPerPkt), len(set.cfgs))
}

// seedSet is a workload's simulated runs over its seed set (derived
// from the --seed by core.RunConfigs). sim_mbps and heap_mb average over
// the set: the message pool's high-water mark, and so the heap, varies
// from seed to seed. A seed's virtual results must repeat bit for bit.
type seedSet struct {
	w    *workload
	cfgs []core.Config
	done []bool
	rrs  []core.RunResult
	heap []float64
}

func newSeedSet(w *workload, cfg core.Config) *seedSet {
	n := w.seeds
	return &seedSet{w: w, cfgs: core.RunConfigs(cfg, n), done: make([]bool, n),
		rrs: make([]core.RunResult, n), heap: make([]float64, n)}
}

// add records a run of seed k: the first is kept (and seed 0's checked
// for accounting), a repeat must match it exactly.
func (s *seedSet) add(k int, p corePass, r *result) {
	if s.done[k] {
		if ref := s.rrs[k]; math.Float64bits(p.res.Mbps) != math.Float64bits(ref.Mbps) || p.res.Packets != ref.Packets {
			r.fail("%s seed %d not reproducible: %v Mb/s, %d pkts vs %v, %d",
				s.w.name, s.cfgs[k].Seed, p.res.Mbps, p.res.Packets, ref.Mbps, ref.Packets)
		}
		return
	}
	s.done[k] = true
	s.rrs[k] = p.res
	s.heap[k] = liveHeapMB(p.st)
	if k == 0 {
		checkAccounting(s.w, s.cfgs[0], p, r)
	}
}

// report sets sim_mbps (the mean core.AggregateRuns computes) and
// heap_mb.
func (s *seedSet) report(r *result) {
	_, agg := core.AggregateRuns(s.rrs)
	r.set("sim_mbps", agg.Mbps, "Mbit/s")
	r.set("heap_mb", mean(s.heap), "MiB")
}

// checkAccounting checks the accounting identity over a pass's window
// on the benchmark's own packet count: on the TCP workloads the shimmed
// assembly's count of completed delivery calls, else the steered sink's
// delivered count.
func checkAccounting(w *workload, cfg core.Config, p corePass, r *result) {
	own, slack := p.res.Packets, int64(0)
	if w.tcp() {
		a, err := checkedAssembly(cfg, w, p.res, p.st, r)
		if err != nil {
			r.fail("%s assembly: %v", w.name, err)
			return
		}
		own = a.w1.done - a.w0.done
		// The stack counts bytes inside the delivery call: a packet
		// that straddles a window edge may be in the byte count but not
		// yet in own, or the reverse.
		slack = max(a.w0.entered-a.w0.done, a.w1.entered-a.w1.done)
	}
	bits := float64(own) * float64(cfg.PacketSize) * 8
	want := p.res.Mbps * float64(w.windowNs) / 1e3
	if math.IsNaN(want) || math.Abs(bits-want) > float64(1+slack)*float64(cfg.PacketSize)*8 {
		r.fail("%s accounting: %d packets x %d B x 8 = %.0f bit, but %v Mb/s x %d ns = %.0f bit (%d packets in delivery at the window edges)",
			w.name, own, cfg.PacketSize, bits, p.res.Mbps, w.windowNs, want, slack)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// checkedAssembly runs the benchmark's own shimmed assembly of cfg and
// checks it reproduces the untraced core run exactly: window bytes,
// window packets and the whole run's state-lock acquisitions.
func checkedAssembly(cfg core.Config, w *workload, ref core.RunResult, refStack *core.Stack, r *result) (*assembled, error) {
	a, err := assemble(cfg)
	if err != nil {
		return nil, err
	}
	a.memStats = true
	if err := a.run(w.warmupNs, w.windowNs); err != nil {
		return nil, err
	}
	refBytes := int64(math.Round(ref.Mbps * float64(w.windowNs) / 8e3))
	refAcq := int64(0)
	for _, l := range refStack.Profile("", ref).Locks {
		if l.Name == "tcp-state" {
			refAcq += l.Acquires
		}
	}
	gotBytes := a.w1.bytes - a.w0.bytes
	gotPkts := a.w1.corePkts - a.w0.corePkts
	if gotBytes != refBytes || gotPkts != ref.Packets || a.stateAcquires() != refAcq {
		r.fail("%s traced assembly diverges from core: bytes %d/%d, packets %d/%d, state-lock acquires %d/%d",
			w.name, gotBytes, refBytes, gotPkts, ref.Packets, a.stateAcquires(), refAcq)
	}
	return a, nil
}

// hostEndToEnd measures the host-backend workload: real Mb/s over
// repeated wall-clock windows, plus the simulated counterpart.
func hostEndToEnd(w *workload, seed uint64, budget time.Duration, r *result) {
	simCfg := w.cfg(seed)
	hcfg := w.hostConfig(seed)
	start := time.Now()

	// The simulated counterpart: the same configuration's modelled
	// goodput and heap over the seed set. The heap is not measured on the
	// host passes: there the arena's high-water mark follows the real
	// interleaving and drifts by tens of percent from run to run.
	set := newSeedSet(w, simCfg)
	for k, c := range set.cfgs {
		p, err := runCore(c, w.warmupNs, w.windowNs)
		if err != nil {
			r.fail("%s simulated counterpart: %v", w.name, err)
			return
		}
		set.add(k, p, r)
	}
	set.report(r)

	// Set-up is timed on the counterpart too. On the host backend a
	// set-up is ~0.1 ms of goroutine starts whose latency, and core's
	// teardown wait for the event wheel's next tick (see README.md), make
	// it bimodal; the work a change could move into set-up is the same
	// code on both substrates.
	setup, err := setupSeconds(simCfg, budget/10)
	if err != nil {
		r.fail("%s set-up: %v", w.name, err)
		return
	}
	r.set("setup_s", setup, "s")

	var nsPerPkt, mbps []float64
	for len(mbps) < 3 || time.Since(start) < budget {
		p, err := runCore(hcfg, w.hostWarmupNs, w.hostWindowNs)
		if err != nil {
			r.fail("%s host pass %d: %v", w.name, len(mbps), err)
			return
		}
		r.Attempted += p.offered()
		r.Failed += p.lost
		if p.res.Packets <= 0 || !(p.res.Mbps > 0) {
			r.fail("%s host pass %d: %d packets, %v Mb/s", w.name, len(mbps), p.res.Packets, p.res.Mbps)
			return
		}
		nsPerPkt = append(nsPerPkt, float64(w.hostWindowNs)/float64(p.res.Packets))
		mbps = append(mbps, p.res.Mbps)
	}
	r.set("host_mbps", median(mbps), "Mbit/s")
	r.set("host_ns_per_pkt", median(nsPerPkt), "ns")
	fmt.Printf("%-17s %d host windows of %d ms\n", w.name, len(mbps), w.hostWindowNs/1e6)
}
