package main

// The traced run: per-layer metrics. TCP workloads run the benchmark's
// shimmed assembly (span self times per layer), udp-steer-100k runs core
// with the flight recorder on; every traced run is profiled and the CPU
// samples are charged to layers.

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/xmap"
)

// perLayer lists every per-layer metric with its unit; a traced run
// reports all of them, zero where the layer does no work.
var perLayer = func() [][2]string {
	var m [][2]string
	for _, b := range profileBuckets {
		m = append(m, [2]string{b + ".host_ns_per_pkt", "ns"})
	}
	for _, l := range layerNames {
		m = append(m, [2]string{l + ".self_vns_per_pkt", "vns"},
			[2]string{l + ".host_self_ns_per_pkt", "ns"})
	}
	return append(m,
		[2]string{"profile.samples", "count"},
		[2]string{"profile.host_ns_per_pkt", "ns"},
		[2]string{"sim.state_lock.wait_frac", "frac"},
		[2]string{"sim.state_lock.hold_vns_per_pkt", "vns"},
		[2]string{"sim.state_lock.contended_pct", "%"},
		[2]string{"sim.host_lock.wait_frac", "frac"},
		[2]string{"tcp.ooo_pct", "%"},
		[2]string{"tcp.predicted_pct", "%"},
		[2]string{"tcp.acks_out_per_pkt", "1/pkt"},
		[2]string{"msg.cache_hit_pct", "%"},
		[2]string{"msg.go_alloc_bytes_per_pkt", "B"},
		[2]string{"msg.arena_lock.wait_vns_per_pkt", "vns"},
		[2]string{"xmap.one_behind_hit_pct", "%"},
		[2]string{"xmap.lock_wait_vns_per_pkt", "vns"},
		[2]string{"steer.drop_pct", "%"},
		[2]string{"steer.flow_evicts_per_kpkt", "1/kpkt"},
		[2]string{"steer.imbalance_pct", "%"},
		[2]string{"steer.lock_wait_frac", "frac"},
		[2]string{"workload.sink_evicts_per_kpkt", "1/kpkt"},
		[2]string{"workload.misorder_pct", "%"},
		[2]string{"app.lat_p50_vns", "vns"},
		[2]string{"app.lat_p99_vns", "vns"},
		[2]string{"cost.paper_err_pct", "%"},
		[2]string{"trace.host_overhead_pct", "%"},
	)
}()

func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

func perPkt(x, pkts int64) float64 {
	if pkts == 0 {
		return 0
	}
	return float64(x) / float64(pkts)
}

func runTraced(w *workload, seed uint64, budget time.Duration, r *result) {
	for _, m := range perLayer {
		r.set(m[0], 0, m[1])
	}
	switch {
	case w.host:
		tracedHost(w, seed, budget, r)
	case w.tcp():
		tracedSim(w, seed, budget, r)
	default:
		tracedSteer(w, seed, budget, r)
	}
}

// profiled runs pass repeatedly under the CPU profiler for about
// budget and charges the samples to layers, scaled so the per-layer
// host ns per packet add up to the passes' wall ns per packet. pass
// returns the packets it delivered.
func profiled(budget time.Duration, min int, r *result, pass func(i int) (int64, error)) error {
	prof, err := startProfile()
	if err != nil {
		return err
	}
	start := time.Now()
	var pkts int64
	var passErr error
	for i := 0; i < min || time.Since(start) < budget; i++ {
		n, err := pass(i)
		if err != nil {
			passErr = err
			break
		}
		pkts += n
	}
	wall := time.Since(start)
	a, err := prof.stop()
	if passErr != nil {
		return passErr
	}
	if err != nil {
		return err
	}
	if pkts <= 0 || a.samples <= 0 {
		return fmt.Errorf("perfbench: profile has %d samples over %d packets", a.samples, pkts)
	}
	nsPerPkt := float64(wall.Nanoseconds()) / float64(pkts)
	sum := 0.0
	for _, b := range profileBuckets {
		v := a.share(b) * nsPerPkt
		sum += v
		r.set(b+".host_ns_per_pkt", v, "ns")
		fmt.Printf("profile  %-9s %6.2f%% of %d samples  %10.1f ns/pkt\n", b, 100*a.share(b), a.samples, v)
	}
	// The attribution must add up: every sample lands in exactly one
	// bucket.
	if math.Abs(sum-nsPerPkt) > 1e-6*nsPerPkt {
		r.fail("profile attribution sums to %.3f ns/pkt, traced run is %.3f", sum, nsPerPkt)
	}
	r.set("profile.samples", float64(a.samples), "count")
	r.set("profile.host_ns_per_pkt", nsPerPkt, "ns")
	return nil
}

// windowLayers reports an assembled run's window: span self times
// (virtual ns on sim, wall ns on host) and the counter deltas.
func windowLayers(a *assembled, r *result, host bool) {
	d0, d1 := a.w0, a.w1
	pkts := d1.done - d0.done
	for l, name := range layerNames {
		self := perPkt(d1.self[l]-d0.self[l], pkts)
		if host {
			r.set(name+".host_self_ns_per_pkt", self, "ns")
		} else {
			r.set(name+".self_vns_per_pkt", self, "vns")
		}
	}
	if host {
		return
	}
	window := d1.now - d0.now
	r.set("sim.state_lock.wait_frac", float64(d1.state.WaitNs-d0.state.WaitNs)/float64(window*int64(a.cfg.Procs)), "frac")
	r.set("sim.state_lock.hold_vns_per_pkt", perPkt(d1.state.HoldNs-d0.state.HoldNs, pkts), "vns")
	r.set("sim.state_lock.contended_pct", pct(d1.state.Contended-d0.state.Contended, d1.state.Acquires-d0.state.Acquires), "%")
	r.set("tcp.ooo_pct", pct(d1.tcp.OOOSegsIn-d0.tcp.OOOSegsIn, d1.tcp.DataSegsIn-d0.tcp.DataSegsIn), "%")
	r.set("tcp.predicted_pct", pct(d1.tcp.Predicted-d0.tcp.Predicted, d1.tcp.SegsIn-d0.tcp.SegsIn), "%")
	r.set("tcp.acks_out_per_pkt", perPkt(d1.tcp.AcksOut-d0.tcp.AcksOut, pkts), "1/pkt")
	hits, misses := d1.alloc.CacheHits-d0.alloc.CacheHits, d1.alloc.CacheMisses-d0.alloc.CacheMisses
	r.set("msg.cache_hit_pct", pct(hits, hits+misses), "%")
	r.set("msg.go_alloc_bytes_per_pkt", perPkt(int64(d1.heapB-d0.heapB), pkts), "B")
	r.set("msg.arena_lock.wait_vns_per_pkt", perPkt(d1.arena.WaitNs-d0.arena.WaitNs, pkts), "vns")
	r.set("xmap.one_behind_hit_pct", pct(d1.maps.CacheHits-d0.maps.CacheHits, d1.maps.Resolves-d0.maps.Resolves), "%")
	r.set("xmap.lock_wait_vns_per_pkt", perPkt(d1.mapWait-d0.mapWait, pkts), "vns")
	lat := a.sp.latencies()
	if len(lat) > 0 {
		r.set("app.lat_p50_vns", float64(lat[len(lat)/2]), "vns")
		r.set("app.lat_p99_vns", float64(lat[len(lat)*99/100]), "vns")
	}
}

// paperError is the mean absolute error, in percent, against the
// workload's published references; -1 marks an unvalidated workload.
func paperError(w *workload, mbps, ooo float64, r *result) {
	var errs []float64
	if w.paperMbps > 0 {
		errs = append(errs, math.Abs(mbps-w.paperMbps)/w.paperMbps)
	}
	if w.paperOOO > 0 {
		errs = append(errs, math.Abs(ooo-w.paperOOO)/w.paperOOO)
	}
	if len(errs) == 0 {
		r.set("cost.paper_err_pct", -1, "%")
		fmt.Printf("%-17s cost.paper_err_pct: unvalidated (no paper figure)\n", w.name)
		return
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	r.set("cost.paper_err_pct", 100*sum/float64(len(errs)), "%")
}

// tracedSim is the traced run of a simulated TCP workload.
func tracedSim(w *workload, seed uint64, budget time.Duration, r *result) {
	cfg := w.cfg(seed)
	ref, err := runCore(cfg, w.warmupNs, w.windowNs)
	if err != nil {
		r.fail("%s reference run: %v", w.name, err)
		return
	}
	r.Attempted += ref.offered()
	r.Failed += ref.lost
	var first *assembled
	err = profiled(budget, 2, r, func(i int) (int64, error) {
		a, err := checkedAssembly(cfg, w, ref.res, ref.st, r)
		if err != nil {
			return 0, err
		}
		if i == 0 {
			first = a
		}
		return a.sp.done.Load(), nil
	})
	if err != nil {
		r.fail("%s traced run: %v", w.name, err)
		return
	}
	windowLayers(first, r, false)
	paperError(w, ref.res.Mbps, r.Metrics["tcp.ooo_pct"].Value, r)
}

// tracedHost is the traced run of the host workload: untraced and
// shimmed host windows, and the shimmed simulated counterpart for the
// virtual-time layer split.
func tracedHost(w *workload, seed uint64, budget time.Duration, r *result) {
	cfg := w.cfg(seed)
	ref, err := runCore(cfg, w.warmupNs, w.windowNs)
	if err != nil {
		r.fail("%s simulated counterpart: %v", w.name, err)
		return
	}
	a, err := checkedAssembly(cfg, w, ref.res, ref.st, r)
	if err != nil {
		r.fail("%s simulated counterpart assembly: %v", w.name, err)
		return
	}
	windowLayers(a, r, false)
	paperError(w, ref.res.Mbps, r.Metrics["tcp.ooo_pct"].Value, r)

	// Untraced and traced host windows, interleaved so both see the
	// same machine conditions.
	hcfg := w.hostConfig(seed)
	var plain, traced, lockWait []float64
	var firstTraced *assembled
	err = profiled(budget, 3, r, func(i int) (int64, error) {
		p, err := runCore(hcfg, w.hostWarmupNs, w.hostWindowNs)
		if err != nil {
			return 0, err
		}
		r.Attempted += p.offered()
		r.Failed += p.lost
		plain = append(plain, p.res.Mbps)
		lockWait = append(lockWait, p.res.LockWaitFrac)
		a, err := assemble(hcfg)
		if err != nil {
			return 0, err
		}
		if err := a.run(w.hostWarmupNs, w.hostWindowNs); err != nil {
			return 0, err
		}
		if a.w1.done <= a.w0.done {
			return 0, fmt.Errorf("traced host window delivered no packets")
		}
		traced = append(traced, a.windowMbps())
		if firstTraced == nil {
			firstTraced = a
		}
		return p.pkts + a.sp.done.Load(), nil
	})
	if err != nil {
		r.fail("%s host traced run: %v", w.name, err)
		return
	}
	windowLayers(firstTraced, r, true)
	r.set("sim.host_lock.wait_frac", median(lockWait), "frac")
	mp, mt := median(plain), median(traced)
	r.set("trace.host_overhead_pct", 100*(mp-mt)/mp, "%")
	fmt.Printf("%-17s host Mb/s untraced %.1f, traced %.1f over %d windows each\n", w.name, mp, mt, len(plain))
}

// tracedSteer is the traced run of the steered UDP workload: core with
// the flight recorder on (virtual-time neutral), plus the layers'
// counters.
func tracedSteer(w *workload, seed uint64, budget time.Duration, r *result) {
	cfg := w.cfg(seed)
	ref, err := runCore(cfg, w.warmupNs, w.windowNs)
	if err != nil {
		r.fail("%s reference run: %v", w.name, err)
		return
	}
	r.Attempted += ref.offered()
	r.Failed += ref.lost
	tcfg := cfg
	tcfg.Trace = true
	tcfg.TraceDepth = 4096 // the histograms, not the timelines, are read
	// Go heap allocated by set-up alone, so the per-packet figure
	// covers traffic only.
	setupAlloc, err := allocated(func() error {
		st, err := core.Build(tcfg)
		if err == nil {
			_, err = st.Run(0, 0)
		}
		return err
	})
	if err != nil {
		r.fail("%s set-up run: %v", w.name, err)
		return
	}
	var first corePass
	var firstAlloc uint64
	err = profiled(budget, 2, r, func(i int) (int64, error) {
		var p corePass
		n, err := allocated(func() error {
			var err error
			p, err = runCore(tcfg, w.warmupNs, w.windowNs)
			return err
		})
		if err != nil {
			return 0, err
		}
		if math.Float64bits(p.res.Mbps) != math.Float64bits(ref.res.Mbps) || p.res.Packets != ref.res.Packets {
			r.fail("%s traced run diverges from untraced: %v Mb/s, %d pkts vs %v, %d",
				w.name, p.res.Mbps, p.res.Packets, ref.res.Mbps, ref.res.Packets)
		}
		if i == 0 {
			first, firstAlloc = p, n
		}
		return p.pkts, nil
	})
	if err != nil {
		r.fail("%s traced run: %v", w.name, err)
		return
	}
	st, res := first.st, first.res
	pkts := first.pkts
	offered := res.Packets + res.SteerDrops
	r.set("steer.drop_pct", pct(res.SteerDrops, offered), "%")
	r.set("steer.flow_evicts_per_kpkt", 1000*perPkt(res.FlowEvicts, res.Packets), "1/kpkt")
	r.set("steer.imbalance_pct", res.ImbalancePct, "%")
	r.set("steer.lock_wait_frac", res.LockWaitFrac, "frac")
	r.set("workload.sink_evicts_per_kpkt", 1000*perPkt(res.SinkEvicts, res.Packets), "1/kpkt")
	r.set("workload.misorder_pct", res.OOOPct, "%")

	ms := st.Alloc.Stats()
	r.set("msg.cache_hit_pct", pct(ms.CacheHits, ms.CacheHits+ms.CacheMisses), "%")
	r.set("msg.go_alloc_bytes_per_pkt", perPkt(int64(firstAlloc)-int64(setupAlloc), pkts), "B")
	r.set("msg.arena_lock.wait_vns_per_pkt", perPkt(st.Alloc.ArenaLockStats().WaitNs, pkts), "vns")
	var resolves, hits, mapWait int64
	for _, m := range demuxMaps(st) {
		s := m.Stats()
		resolves += s.Resolves
		hits += s.CacheHits
		mapWait += m.LockStats().WaitNs
	}
	r.set("xmap.one_behind_hit_pct", pct(hits, resolves), "%")
	r.set("xmap.lock_wait_vns_per_pkt", perPkt(mapWait, pkts), "vns")

	// Layer self time from the recorder's inclusive residence sums; the
	// receive path nests fddi > ip > udp, and udp's span includes the
	// workload sink.
	sum := func(name string) int64 {
		if h := st.Rec.LayerHistogram(name); h != nil {
			return h.Sum()
		}
		return 0
	}
	fd, ipr, ud := sum("fddi-recv"), sum("ip-recv"), sum("udp-recv")
	r.set("fddi.self_vns_per_pkt", perPkt(fd-ipr, pkts), "vns")
	r.set("ip.self_vns_per_pkt", perPkt(ipr-ud, pkts), "vns")
	r.set("udp.self_vns_per_pkt", perPkt(ud, pkts), "vns")
	if e2e := st.Rec.EndToEnd(); e2e.Count() > 0 {
		r.set("app.lat_p50_vns", float64(e2e.Quantile(0.50)), "vns")
		r.set("app.lat_p99_vns", float64(e2e.Quantile(0.99)), "vns")
	}
	if d := st.Rec.Dropped(); d > 0 {
		fmt.Printf("%-17s flight recorder overwrote %d events (histograms are complete)\n", w.name, d)
	}
	paperError(w, res.Mbps, 0, r)
}

// demuxMaps lists the stack's demultiplexing maps.
func demuxMaps(st *core.Stack) []*xmap.Map {
	var ms []*xmap.Map
	if st.FDDI != nil {
		ms = append(ms, st.FDDI.DemuxMap())
	}
	if st.IP != nil {
		ms = append(ms, st.IP.DemuxMap())
	}
	if st.UDP != nil {
		ms = append(ms, st.UDP.DemuxMap())
	}
	if st.TCP != nil {
		ms = append(ms, st.TCP.DemuxMap())
	}
	return ms
}

// allocated returns the Go heap bytes fn allocates.
func allocated(fn func() error) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc, err
}
