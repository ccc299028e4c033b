package main

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/steer"
)

// workload is one benchmarked configuration.
type workload struct {
	name string
	// cfg builds the simulated configuration for a seed. A host workload
	// runs the same configuration on the host backend for its timed
	// passes; the simulated run is its modelled counterpart.
	cfg  func(seed uint64) core.Config
	host bool
	// Simulated passes: warm-up and measurement window, virtual ns, and
	// how many seeds (core.RunConfigs from the --seed) a run averages.
	warmupNs, windowNs int64
	seeds              int
	// Host passes: warm-up and measurement window, wall ns.
	hostWarmupNs, hostWindowNs int64
	// Published references for cost.paper_err_pct (EXPERIMENTS.md
	// transcribes them from the paper); 0 means no reference.
	paperMbps float64
	paperOOO  float64
}

func tcpConfig(side core.Side, procs int, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Proto = core.ProtoTCP
	cfg.Side = side
	cfg.Procs = procs
	cfg.PacketSize = 4096
	cfg.Checksum = true
	cfg.LockKind = sim.KindMutex
	cfg.Seed = seed
	return cfg
}

// steerConfig is ext-scale's 100k-connection steered point: Flow Director
// on 8 processors, churning flows, 8192 compact sink slots, open-loop
// arrivals scaled to the processor count.
func steerConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Proto = core.ProtoUDP
	cfg.Side = core.SideRecv
	cfg.Procs = 8
	cfg.PacketSize = 1024
	cfg.Checksum = true
	cfg.Connections = 100_000
	cfg.Steer.Enabled = true
	cfg.Steer.Policy = steer.PolicyFlowDirector
	cfg.Workload.MeanFlowPkts = 512
	cfg.Workload.ArrivalGapNs = 150_000 / 8
	cfg.Workload.CompactSlots = 8192
	cfg.Seed = seed
	return cfg
}

var workloads = []*workload{
	{
		name:      "tcp-recv-8p",
		cfg:       func(seed uint64) core.Config { return tcpConfig(core.SideRecv, 8, seed) },
		warmupNs:  500_000_000,
		windowNs:  2_000_000_000,
		seeds:     32,
		paperMbps: 250, // Figure 10, mutex, 8 CPUs
		paperOOO:  54,  // Table 1, mutex, 8 CPUs
	},
	{
		name:      "tcp-send-8p",
		cfg:       func(seed uint64) core.Config { return tcpConfig(core.SideSend, 8, seed) },
		warmupNs:  500_000_000,
		windowNs:  2_000_000_000,
		seeds:     32,
		paperMbps: 215, // send-side plateau
	},
	{
		name:     "udp-steer-100k",
		cfg:      steerConfig,
		warmupNs: 200_000_000,
		windowNs: 1_000_000_000,
		seeds:    4,
	},
	{
		name:         "host-tcp-recv-2p",
		cfg:          func(seed uint64) core.Config { return tcpConfig(core.SideRecv, 2, seed) },
		host:         true,
		warmupNs:     500_000_000,
		windowNs:     2_000_000_000,
		seeds:        64,
		hostWarmupNs: 50_000_000,
		hostWindowNs: 250_000_000,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// tcp reports whether the workload runs the TCP stack, which the
// benchmark assembles itself for the traced run and the accounting check.
func (w *workload) tcp() bool { return w.cfg(0).Proto == core.ProtoTCP }

// hostConfig is the workload's configuration on the host backend.
func (w *workload) hostConfig(seed uint64) core.Config {
	cfg := w.cfg(seed)
	cfg.Backend = sim.BackendHost
	return cfg
}
