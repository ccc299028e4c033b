// Package driver implements the in-memory device drivers of Section 2.3:
// since the platform runs in user space, a simulated driver replaces the
// FDDI adaptor. The drivers act as senders or receivers, producing or
// consuming packets as fast as possible, to simulate the behaviour of a
// simplex data transfer over an error-free network.
//
// To minimize execution time and experimental perturbation, the
// receive-side drivers use preconstructed packet templates and do not
// calculate TCP and UDP checksums. The simulated TCP receiver
// acknowledges every other packet, mimicking Net/2 TCP talking to
// itself, and "borrows" the stack of a calling thread to send an
// acknowledgement back up.
package driver

import (
	"encoding/binary"

	"repro/internal/chksum"
	"repro/internal/fddi"
	"repro/internal/ip"
	"repro/internal/tcp"
	"repro/internal/udp"
	"repro/internal/xkernel"
)

// Frame offsets within a full in-memory frame.
const (
	offIP  = fddi.HdrLen
	offTCP = fddi.HdrLen + ip.HdrLen
	offUDP = fddi.HdrLen + ip.HdrLen

	tcpFrameHdr = fddi.HdrLen + ip.HdrLen + tcp.HdrLen
	udpFrameHdr = fddi.HdrLen + ip.HdrLen + udp.HdrLen
)

// buildFDDI writes the 16-byte MAC header.
func buildFDDI(b []byte, dst, src xkernel.MAC) {
	b[0] = 0x50
	copy(b[1:7], dst[:])
	copy(b[7:13], src[:])
	binary.BigEndian.PutUint16(b[13:15], ip.EtherType)
	b[15] = 0
}

// buildIP writes a valid 20-byte IPv4 header (checksum included).
func buildIP(b []byte, totLen int, id uint16, proto uint8, src, dst xkernel.IPAddr) {
	b[0] = 0x45
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], uint16(totLen))
	binary.BigEndian.PutUint16(b[4:6], id)
	binary.BigEndian.PutUint16(b[6:8], 0)
	b[8] = 64
	b[9] = proto
	b[10], b[11] = 0, 0
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	ck := chksum.Sum(b[:ip.HdrLen])
	binary.BigEndian.PutUint16(b[10:12], ck)
}

// tcpTemplate preconstructs a full TCP data frame: FDDI + IP + TCP
// headers and a payload of the given size. The TCP checksum is zero
// (the drivers do not checksum; the real receiver computes and ignores).
func tcpTemplate(payload int, srcIP, dstIP xkernel.IPAddr, sport, dport uint16, win uint32) []byte {
	f := make([]byte, tcpFrameHdr+payload)
	buildFDDI(f[0:], xkernel.MAC{0xA, 0, 0, 0, 0, 1}, xkernel.MAC{0xB, 0, 0, 0, 0, 2})
	buildIP(f[offIP:], ip.HdrLen+tcp.HdrLen+payload, 7, ip.ProtoTCP, srcIP, dstIP)
	tcp.PutWireHeader(f[offTCP:], sport, dport, 0, 0, tcp.FlagACK|tcp.FlagPSH, win)
	for i := tcpFrameHdr; i < len(f); i++ {
		f[i] = byte(i * 13)
	}
	return f
}

// udpTemplate preconstructs a full UDP data frame.
func udpTemplate(payload int, srcIP, dstIP xkernel.IPAddr, sport, dport uint16) []byte {
	f := make([]byte, udpFrameHdr+payload)
	buildFDDI(f[0:], xkernel.MAC{0xA, 0, 0, 0, 0, 1}, xkernel.MAC{0xB, 0, 0, 0, 0, 2})
	buildIP(f[offIP:], ip.HdrLen+udp.HdrLen+payload, 7, ip.ProtoUDP, srcIP, dstIP)
	binary.BigEndian.PutUint16(f[offUDP+0:], sport)
	binary.BigEndian.PutUint16(f[offUDP+2:], dport)
	binary.BigEndian.PutUint16(f[offUDP+4:], uint16(udp.HdrLen+payload))
	f[offUDP+6], f[offUDP+7] = 0, 0
	for i := udpFrameHdr; i < len(f); i++ {
		f[i] = byte(i * 13)
	}
	return f
}

// patchTCPSeq stamps a sequence number into a template copy.
func patchTCPSeq(frame []byte, seq uint32) {
	binary.BigEndian.PutUint32(frame[offTCP+4:offTCP+8], seq)
}

// patchTCPAck stamps an acknowledgement number.
func patchTCPAck(frame []byte, ack uint32) {
	binary.BigEndian.PutUint32(frame[offTCP+8:offTCP+12], ack)
}

// parseFrameTCP extracts the TCP header from a full frame. It rejects a
// frame that is too short for the headers, does not carry TCP, or whose
// IP total length is shorter than the IP and TCP headers or claims bytes
// beyond the end of the frame; so when ok, 0 <= DLen <= len(frame) -
// tcpFrameHdr.
func parseFrameTCP(frame []byte) (tcp.WireSeg, bool) {
	if len(frame) < tcpFrameHdr {
		return tcp.WireSeg{}, false
	}
	if frame[offIP+9] != ip.ProtoTCP {
		return tcp.WireSeg{}, false
	}
	totLen := int(binary.BigEndian.Uint16(frame[offIP+2 : offIP+4]))
	if totLen < ip.HdrLen+tcp.HdrLen || totLen > len(frame)-offIP {
		return tcp.WireSeg{}, false
	}
	s := tcp.ParseWireHeader(frame[offTCP:])
	s.DLen = totLen - ip.HdrLen - tcp.HdrLen
	return s, true
}
