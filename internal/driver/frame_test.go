package driver

import (
	"encoding/binary"
	"testing"

	"repro/internal/ip"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// setTotLen overwrites a frame's IP total length.
func setTotLen(f []byte, n int) {
	binary.BigEndian.PutUint16(f[offIP+2:offIP+4], uint16(n))
}

func TestParseFrameTCPRejectsBadTotalLength(t *testing.T) {
	f := tcpTemplate(100, HostPeer, HostLocal, 2001, 1001, 1<<20)
	room := len(f) - offIP
	for _, tc := range []struct {
		totLen int
		ok     bool
	}{
		{0, false},
		{ip.HdrLen + tcp.HdrLen - 1, false},
		{ip.HdrLen + tcp.HdrLen, true},
		{room, true},
		{room + 1, false},
		{0xffff, false},
	} {
		setTotLen(f, tc.totLen)
		sg, ok := parseFrameTCP(f)
		if ok != tc.ok {
			t.Errorf("totLen %d: ok = %v, want %v", tc.totLen, ok, tc.ok)
		}
		if ok && sg.DLen != tc.totLen-ip.HdrLen-tcp.HdrLen {
			t.Errorf("totLen %d: DLen = %d", tc.totLen, sg.DLen)
		}
	}
}

// TestTXDropsMalformedFrames: a frame whose IP total length disagrees
// with the frame is counted and freed like a corrupt one, without an
// error and without counting phantom payload bytes.
func TestTXDropsMalformedFrames(t *testing.T) {
	run(t, 6, func(th *sim.Thread) {
		a := newAlloc()
		recv := NewSimTCPReceiver(a, 1)
		recv.SetUpper(newCapture())
		send := NewSimTCPSender(a, 1024, 1)
		send.SetUpper(newCapture())
		for _, totLen := range []int{ip.HdrLen + tcp.HdrLen - 1, ip.HdrLen + tcp.HdrLen + 101} {
			for _, tx := range []func(*sim.Thread, []byte) error{
				func(th *sim.Thread, f []byte) error {
					m, _ := a.New(th, len(f), 0)
					m.CopyTemplate(0, f)
					return recv.TX(th, m)
				},
				func(th *sim.Thread, f []byte) error {
					m, _ := a.New(th, len(f), 0)
					m.CopyTemplate(0, f)
					return send.TX(th, m)
				},
			} {
				f := tcpTemplate(100, HostLocal, HostPeer, LocalPort(0), PeerPort(0), 1<<20)
				f[offTCP+12] = tcp.FlagACK | tcp.FlagPSH | tcp.FlagFIN
				setTotLen(f, totLen)
				if err := tx(th, f); err != nil {
					t.Fatalf("totLen %d: TX error %v", totLen, err)
				}
			}
		}
		if recv.BadChecksums() != 2 || send.BadFrames() != 2 {
			t.Errorf("dropped %d (receiver) and %d (sender), want 2 each",
				recv.BadChecksums(), send.BadFrames())
		}
		if recv.Bytes() != 0 || recv.Packets() != 0 {
			t.Errorf("receiver counted %d packets / %d bytes from malformed frames",
				recv.Packets(), recv.Bytes())
		}
		if n := a.Stats().Frees; n != 4 {
			t.Errorf("%d of 4 dropped frames freed", n)
		}
	})
}

// FuzzParseFrameTCP: no input panics the parser, and an accepted frame's
// payload length lies within the frame.
func FuzzParseFrameTCP(f *testing.F) {
	tmpl := tcpTemplate(64, HostPeer, HostLocal, 2001, 1001, 1<<20)
	f.Add(tmpl)
	f.Add(tmpl[:tcpFrameHdr])
	f.Add(tmpl[:tcpFrameHdr-1])
	short := append([]byte{}, tmpl...)
	setTotLen(short, 10)
	f.Add(short)
	long := append([]byte{}, tmpl...)
	setTotLen(long, 0xffff)
	f.Add(long)
	f.Fuzz(func(t *testing.T, frame []byte) {
		sg, ok := parseFrameTCP(frame)
		if ok && (sg.DLen < 0 || sg.DLen > len(frame)-tcpFrameHdr) {
			t.Errorf("accepted frame of %d bytes with DLen %d", len(frame), sg.DLen)
		}
	})
}
