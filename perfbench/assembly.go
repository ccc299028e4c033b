package main

// The benchmark's own assembly of the TCP packet-level stack. It builds
// the same driver/FDDI/IP/TCP/app stack core.Build does, in the same
// order (so every thread draws the same RNG stream and the simulation
// is bit-identical to the core run), but with a timing shim on each
// xkernel boundary: Wire.TX, Upper.Demux, Session.Push and
// Receiver.Receive. The shims read the thread's clock and nothing else,
// so they charge no virtual time.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/driver"
	"repro/internal/event"
	"repro/internal/fddi"
	"repro/internal/ip"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/xkernel"
	"repro/internal/xmap"
)

// Layers the shims attribute time to.
const (
	lDriver = iota
	lFDDI
	lIP
	lTCP
	lUDP
	lApp
	nLayers
)

var layerNames = [nLayers]string{"driver", "fddi", "ip", "tcp", "udp", "app"}

// dataFrameMin is the smallest frame that carries TCP payload: anything
// at or below the FDDI+IP+TCP header length is a control segment.
const dataFrameMin = fddi.HdrLen + ip.HdrLen + tcp.HdrLen + 1

// maxThreads bounds the thread IDs the span stacks are indexed by.
const maxThreads = 64

type frame struct {
	layer        int
	start, child int64
}

// threadSpans is one thread's span stack and counters. Only the owning
// thread writes the stack; the counters are atomic because the control
// thread snapshots them mid-run on the host backend.
type threadSpans struct {
	stack []frame
	self  [nLayers]atomic.Int64
	lat   []int64 // Born-to-delivery latencies inside the window
	_     [64]byte
}

// spans is the per-thread span bookkeeping of one assembled run.
type spans struct {
	threads  [maxThreads]threadSpans
	overflow atomic.Int64 // spans dropped: thread ID out of range
	// Own packet counts at the delivery point: entered is bumped when a
	// packet enters the delivery call, done when the call returns.
	entered, done atomic.Int64
	inWindow      atomic.Bool // latency recording on
}

func (s *spans) enter(t *sim.Thread, l int) {
	if t.ID >= maxThreads {
		s.overflow.Add(1)
		return
	}
	ts := &s.threads[t.ID]
	ts.stack = append(ts.stack, frame{layer: l, start: t.Now()})
}

func (s *spans) exit(t *sim.Thread) {
	if t.ID >= maxThreads {
		return
	}
	ts := &s.threads[t.ID]
	n := len(ts.stack) - 1
	f := ts.stack[n]
	ts.stack = ts.stack[:n]
	d := t.Now() - f.start
	ts.self[f.layer].Add(d - f.child)
	if n > 0 {
		ts.stack[n-1].child += d
	}
}

// delivering counts one packet entering the delivery call and records
// its Born-to-delivery latency while the window is open.
func (s *spans) delivering(t *sim.Thread, born int64) {
	s.entered.Add(1)
	if s.inWindow.Load() && t.ID < maxThreads {
		ts := &s.threads[t.ID]
		ts.lat = append(ts.lat, t.Now()-born)
	}
}

func (s *spans) self() [nLayers]int64 {
	var out [nLayers]int64
	for i := range s.threads {
		for l := range out {
			out[l] += s.threads[i].self[l].Load()
		}
	}
	return out
}

func (s *spans) latencies() []int64 {
	var all []int64
	for i := range s.threads {
		all = append(all, s.threads[i].lat...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return all
}

// Shims, one per xkernel interface.

type wireShim struct {
	s    *spans
	down xkernel.Wire
	send bool // the wire is the delivery point (send side)
}

func (w wireShim) TX(t *sim.Thread, m *msg.Message) error {
	data := w.send && m.Len() >= dataFrameMin
	if data {
		w.s.delivering(t, m.Born)
	}
	w.s.enter(t, lDriver)
	err := w.down.TX(t, m)
	w.s.exit(t)
	if data {
		w.s.done.Add(1)
	}
	return err
}

type upperShim struct {
	s     *spans
	layer int
	up    xkernel.Upper
}

func (u upperShim) Demux(t *sim.Thread, m *msg.Message) error {
	u.s.enter(t, u.layer)
	err := u.up.Demux(t, m)
	u.s.exit(t)
	return err
}

func (u upperShim) Ref() *sim.RefCount { return u.up.Ref() }

type sessionShim struct {
	s     *spans
	layer int
	xkernel.Session
}

func (ss sessionShim) Push(t *sim.Thread, m *msg.Message) error {
	ss.s.enter(t, ss.layer)
	err := ss.Session.Push(t, m)
	ss.s.exit(t)
	return err
}

// ipSessionShim is the IP session TCP sends through.
type ipSessionShim struct {
	sessionShim
	ip *ip.Session
}

func (ss ipSessionShim) Src() xkernel.IPAddr { return ss.ip.Src() }
func (ss ipSessionShim) Dst() xkernel.IPAddr { return ss.ip.Dst() }
func (ss ipSessionShim) MSS() int            { return ss.ip.MSS() }

type tcpOpener struct {
	s  *spans
	ip *ip.Protocol
}

func (o tcpOpener) Open(t *sim.Thread, dst xkernel.IPAddr, proto uint8) (tcp.IPSession, error) {
	sess, err := o.ip.Open(t, dst, proto)
	if err != nil {
		return nil, err
	}
	return ipSessionShim{sessionShim{o.s, lIP, sess}, sess}, nil
}

type receiverShim struct {
	s  *spans
	up xkernel.Receiver
}

func (r receiverShim) Receive(t *sim.Thread, m *msg.Message) error {
	r.s.delivering(t, m.Born)
	r.s.enter(t, lApp)
	err := r.up.Receive(t, m)
	r.s.exit(t)
	r.s.done.Add(1)
	return err
}

// snap is the cumulative counter state at one instant.
type snap struct {
	now      int64
	bytes    int64
	entered  int64 // own counts at the delivery point
	done     int64
	corePkts int64 // what core.RunResult.Packets counts
	self     [nLayers]int64
	state    sim.LockStats
	tcp      tcp.Stats
	alloc    msg.Stats
	arena    sim.LockStats
	maps     xmap.Stats
	mapWait  int64
	heapB    uint64 // cumulative Go heap allocation
}

// assembled is one shimmed TCP stack.
type assembled struct {
	cfg     core.Config
	eng     *sim.Engine
	wheel   *event.Wheel
	alloc   *msg.Allocator
	fddi    *fddi.Protocol
	ip      *ip.Protocol
	tcp     *tcp.Protocol
	source  *app.Source
	sink    *app.Sink
	tcbs    []*tcp.TCB
	tcpRecv *driver.SimTCPReceiver // peer for send side
	tcpSend *driver.SimTCPSender   // peer for receive side
	stop    sim.Flag
	sp      spans
	// memStats reads the Go heap counters at window edges (traced run).
	memStats bool

	w0, w1 snap
}

// assemble builds the stack for a packet-level TCP configuration,
// mirroring core.Build step for step.
func assemble(cfg core.Config) (*assembled, error) {
	if cfg.Proto != core.ProtoTCP || cfg.Strategy != core.StrategyPacket || cfg.Steer.Enabled ||
		cfg.Batch.Enabled || cfg.Faults.Enabled() || cfg.TimerWheel || !cfg.Wired || cfg.Ticketing {
		return nil, errors.New("perfbench: assembly supports the plain packet-level TCP shapes only")
	}
	if cfg.Backend == sim.BackendHost {
		cfg.MsgCache = false // as core's validateBackend does
	}
	a := &assembled{cfg: cfg}
	s := &a.sp
	a.eng = sim.NewBackend(cost.NewModel(cfg.Machine), cfg.Seed+1, cfg.Backend)
	wcfg := event.DefaultConfig()
	wcfg.PerChain = cfg.WheelPerChain
	a.wheel = event.New(wcfg)
	a.alloc = msg.NewAllocator(msg.Config{
		CacheEnabled: cfg.MsgCache,
		RefMode:      cfg.RefMode,
		MaxProcs:     cfg.Procs + 2,
		CacheDepth:   256,
	})

	var wire xkernel.Wire
	if cfg.Side == core.SideSend {
		a.tcpRecv = driver.NewSimTCPReceiver(a.alloc, cfg.Connections)
		if cfg.AckEvery > 0 {
			a.tcpRecv.AckEvery = cfg.AckEvery
		}
		wire = a.tcpRecv
	} else {
		a.tcpSend = driver.NewSimTCPSender(a.alloc, cfg.PacketSize, cfg.Connections)
		wire = a.tcpSend
	}
	a.fddi = fddi.New(fddi.Config{
		Self:       xkernel.MAC{0xA, 0, 0, 0, 0, 1},
		RefMode:    cfg.RefMode,
		MapLocking: cfg.MapLocking,
		MapNoCache: !cfg.MapCache,
	}, wireShim{s, wire, cfg.Side == core.SideSend})
	up := upperShim{s, lFDDI, a.fddi}
	if a.tcpRecv != nil {
		a.tcpRecv.SetUpper(up)
	} else {
		a.tcpSend.SetUpper(up)
	}
	low := ip.LowerFDDI(fddi.MTU, func(t *sim.Thread, remote xkernel.MAC, proto uint16) (xkernel.Session, error) {
		sess, err := a.fddi.Open(t, remote, proto)
		if err != nil {
			return nil, err
		}
		return sessionShim{s, lFDDI, sess}, nil
	})
	a.ip = ip.New(ip.Config{Local: driver.HostLocal, RefMode: cfg.RefMode}, low, a.wheel, a.alloc)
	ck := tcp.ChecksumOff
	if cfg.Checksum {
		ck = tcp.ChecksumCompute
		if cfg.EnforceChecksum {
			ck = tcp.ChecksumEnforce
		}
	}
	buckets := 64
	for buckets < 2*cfg.Connections {
		buckets <<= 1
	}
	a.tcp = tcp.New(tcp.Config{
		Layout:             cfg.Layout,
		Kind:               cfg.LockKind,
		Checksum:           ck,
		RefMode:            cfg.RefMode,
		MapLocking:         cfg.MapLocking,
		MapNoCache:         !cfg.MapCache,
		AssumeInOrder:      cfg.AssumeInOrder,
		Window:             cfg.Window,
		NoHeaderPrediction: cfg.NoHeaderPrediction,
		AckEvery:           cfg.AckEvery,
		Buckets:            buckets,
	}, tcpOpener{s, a.ip}, a.alloc, a.wheel)
	a.source = app.NewSource(a.alloc, cfg.PacketSize)
	return a, nil
}

// setup opens sessions and completes the handshakes, as core does.
func (a *assembled) setup(t *sim.Thread) error {
	s := &a.sp
	if err := a.fddi.OpenEnable(t, ip.EtherType, upperShim{s, lIP, a.ip}); err != nil {
		return err
	}
	if err := a.ip.OpenEnable(t, ip.ProtoTCP, upperShim{s, lTCP, a.tcp}); err != nil {
		return err
	}
	a.tcp.StartTimers(t)
	for i := 0; i < a.cfg.Connections; i++ {
		part := xkernel.Part{
			LocalIP: driver.HostLocal, RemoteIP: driver.HostPeer,
			LocalPort: driver.LocalPort(i), RemotePort: driver.PeerPort(i),
		}
		var tcb *tcp.TCB
		var err error
		if a.cfg.Side == core.SideSend {
			a.sink = app.NewSink(false, nil)
			tcb, err = a.tcp.Open(t, part, receiverShim{s, a.sink})
		} else {
			if a.sink == nil {
				a.sink = app.NewSink(false, nil)
			}
			tcb, err = a.tcp.OpenEnable(t, part, receiverShim{s, a.sink})
		}
		if err != nil {
			return err
		}
		a.tcbs = append(a.tcbs, tcb)
	}
	if a.cfg.Side == core.SideSend {
		a.tcpRecv.StartAckFlush(t, a.wheel)
		return nil
	}
	for i := 0; i < a.cfg.Connections; i++ {
		if err := a.tcpSend.Start(t, i); err != nil {
			return err
		}
	}
	return nil
}

// pump is one processor's protocol thread (core's packet-level pump).
func (a *assembled) pump(t *sim.Thread, p int) {
	s := &a.sp
	c := p % a.cfg.Connections
	for !a.stop.Get() {
		var err error
		if a.cfg.Side == core.SideSend {
			var m *msg.Message
			s.enter(t, lApp)
			m, err = a.source.Next(t)
			s.exit(t)
			if err == nil {
				s.enter(t, lTCP)
				err = a.tcbs[c].Push(t, m)
				s.exit(t)
				if errors.Is(err, tcp.ErrClosed) {
					return
				}
			}
			t.Yield()
		} else {
			var ok bool
			s.enter(t, lDriver)
			ok, err = a.tcpSend.Pump(t, c, &a.stop)
			s.exit(t)
			if !ok {
				return
			}
		}
		if errors.Is(err, tcp.ErrClosed) {
			return
		}
		if err != nil {
			panic(fmt.Sprintf("perfbench: pump %d: %v", p, err))
		}
	}
}

func (a *assembled) snapshot(t *sim.Thread) snap {
	sn := snap{now: t.Now(), done: a.sp.done.Load(), self: a.sp.self()}
	sn.entered = a.sp.entered.Load()
	if a.tcpRecv != nil {
		sn.bytes = a.tcpRecv.Bytes()
		_, sn.corePkts = a.tcpRecv.WireOrder()
	} else {
		sn.bytes = a.sink.Bytes()
		for _, tcb := range a.tcbs {
			_, d := tcb.OOOStats()
			sn.corePkts += d
		}
	}
	for _, tcb := range a.tcbs {
		st := tcb.StateLockStats()
		sn.state.Acquires += st.Acquires
		sn.state.Contended += st.Contended
		sn.state.WaitNs += st.WaitNs
		sn.state.HoldNs += st.HoldNs
	}
	sn.tcp = a.tcp.Stats()
	sn.alloc = a.alloc.Stats()
	sn.arena = a.alloc.ArenaLockStats()
	for _, m := range []*xmap.Map{a.fddi.DemuxMap(), a.ip.DemuxMap(), a.tcp.DemuxMap()} {
		st := m.Stats()
		sn.maps.Resolves += st.Resolves
		sn.maps.CacheHits += st.CacheHits
		sn.mapWait += m.LockStats().WaitNs
	}
	if a.memStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		sn.heapB = ms.TotalAlloc
	}
	return sn
}

// run drives warm-up, window and teardown exactly as core.Stack.Run.
func (a *assembled) run(warmupNs, windowNs int64) error {
	cfg := &a.cfg
	var runErr error
	controlProc, wheelProc := 0, 0
	if a.eng.IsHost() {
		controlProc, wheelProc = cfg.Procs, cfg.Procs+1
		a.eng.SetHostPinning(cfg.Procs)
	}
	a.wheel.Start(a.eng, wheelProc)
	a.eng.Spawn("control", controlProc, func(t *sim.Thread) {
		defer func() {
			a.stop.Set()
			a.tcp.StopTimers()
			for _, tcb := range a.tcbs {
				tcb.Abort(t)
			}
			if a.tcpRecv != nil {
				a.tcpRecv.StopAckFlush()
			}
			a.wheel.Stop()
		}()
		if err := a.setup(t); err != nil {
			runErr = err
			return
		}
		for p := 0; p < cfg.Procs; p++ {
			p := p
			a.eng.Spawn(fmt.Sprintf("pump%d", p), p, func(pt *sim.Thread) { a.pump(pt, p) })
		}
		t.Sleep(warmupNs)
		a.w0 = a.snapshot(t)
		a.sp.inWindow.Store(true)
		t.Sleep(windowNs)
		a.sp.inWindow.Store(false)
		a.w1 = a.snapshot(t)
	})
	a.eng.Run()
	if runErr == nil && a.sp.overflow.Load() > 0 {
		runErr = fmt.Errorf("perfbench: %d spans on threads beyond the span table", a.sp.overflow.Load())
	}
	return runErr
}

// stateAcquires totals the state-lock acquisitions of the whole run.
func (a *assembled) stateAcquires() int64 {
	var n int64
	for _, tcb := range a.tcbs {
		n += tcb.StateLockStats().Acquires
	}
	return n
}

// windowMbps is the window's goodput on the stack's clock.
func (a *assembled) windowMbps() float64 {
	return float64(a.w1.bytes-a.w0.bytes) * 8 * 1e3 / float64(a.w1.now-a.w0.now)
}
