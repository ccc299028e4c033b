package core

import (
	"math"
	"testing"

	"repro/internal/steer"
)

// TestPacketByteAccounting checks the window identity between the two
// throughput counters: Packets x PacketSize x 8 bits must equal
// Mbps x elapsed to within one packet, for every traffic shape. On TCP
// receive the two counters sit at different points: the sink counts
// bytes inside the delivery call, TCP counts the data segment after it
// returns. Each pump can be parked inside delivery at either window
// edge, so that shape is also allowed one packet per processor.
func TestPacketByteAccounting(t *testing.T) {
	shape := func(proto Proto, side Side) Config {
		cfg := DefaultConfig()
		cfg.Proto = proto
		cfg.Side = side
		cfg.Procs = 4
		return cfg
	}
	cases := []struct {
		name  string
		cfg   Config
		edges int64 // packets that may straddle the window edges
	}{
		{"tcp-send", shape(ProtoTCP, SideSend), 0},
		{"tcp-recv", shape(ProtoTCP, SideRecv), 4},
		{"udp-send", shape(ProtoUDP, SideSend), 0},
		{"udp-recv", shape(ProtoUDP, SideRecv), 0},
		{"udp-steered", steeredConfig(steer.PolicyFlowDirector), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runOne(t, tc.cfg)
			if res.Packets <= 0 {
				t.Fatalf("Packets = %d, want > 0", res.Packets)
			}
			pkt := float64(tc.cfg.PacketSize) * 8
			bits := float64(res.Packets) * pkt
			want := res.Mbps * testMeasure / 1e3
			if math.Abs(bits-want) > float64(1+tc.edges)*pkt {
				t.Errorf("%d packets x %d B x 8 = %.0f bit, but %.3f Mb/s x %d ns = %.0f bit",
					res.Packets, tc.cfg.PacketSize, bits, res.Mbps, testMeasure, want)
			}
		})
	}
}

// TestZeroWindowResult checks that a set-up-only run (no measurement
// window) reports zero rates rather than dividing by zero.
func TestZeroWindowResult(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proto = ProtoTCP
	cfg.Side = SideRecv
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Run(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mbps != 0 || res.LockWaitFrac != 0 || res.Packets != 0 {
		t.Fatalf("zero window: Mbps %v, LockWaitFrac %v, Packets %d; want all 0", res.Mbps, res.LockWaitFrac, res.Packets)
	}
}
