// Package chksum implements the Internet one's-complement checksum
// (RFC 1071) in the wide-accumulation style of the fast portable UCSD
// algorithm cited by the paper (Kay & Pasquale, USENIX Winter '93).
//
// Partial loads the data as little-endian 64-bit words and adds them
// into two independent add-with-carry chains (math/bits.Add64), unrolled
// over 64 bytes so the two chains' carries never wait on each other. A
// carry out of one add is fed into the next add of the same chain: that
// is an end-around carry, and it is exact because 2^64 ≡ 1 (mod 0xffff).
// For the same reason a 64-bit word is congruent to the sum of its four
// 16-bit halves, so folding the chains down to 16 bits gives the
// one's-complement sum of the data read as little-endian 16-bit words.
// RFC 1071 §2(B) byte-order independence turns that into the big-endian
// sum: swapping the bytes of every word swaps the bytes of the sum, so
// one byte swap of the folded result (bits.ReverseBytes16) yields the
// value the caller's big-endian accumulator expects. Fewer than eight
// leftover bytes are added as big-endian 16-bit words, and an odd final
// byte is padded with zero.
//
// The checksum is computed for real — protocol tests depend on actual
// header and payload validation — while the virtual time it costs is
// charged separately from the cost model by the protocol layers.
package chksum

import (
	"encoding/binary"
	"math/bits"
)

// Partial accumulates the unfolded checksum of data into sum. Data is
// treated as a sequence of big-endian 16-bit words; an odd trailing byte
// is padded with zero, which matches RFC 1071 when used on the final
// fragment only (intermediate calls must pass even-length slices).
func Partial(sum uint64, data []byte) uint64 {
	var a0, a1, c0, c1 uint64
	for ; len(data) >= 64; data = data[64:] {
		a0, c0 = bits.Add64(a0, binary.LittleEndian.Uint64(data[0:8]), c0)
		a1, c1 = bits.Add64(a1, binary.LittleEndian.Uint64(data[8:16]), c1)
		a0, c0 = bits.Add64(a0, binary.LittleEndian.Uint64(data[16:24]), c0)
		a1, c1 = bits.Add64(a1, binary.LittleEndian.Uint64(data[24:32]), c1)
		a0, c0 = bits.Add64(a0, binary.LittleEndian.Uint64(data[32:40]), c0)
		a1, c1 = bits.Add64(a1, binary.LittleEndian.Uint64(data[40:48]), c1)
		a0, c0 = bits.Add64(a0, binary.LittleEndian.Uint64(data[48:56]), c0)
		a1, c1 = bits.Add64(a1, binary.LittleEndian.Uint64(data[56:64]), c1)
	}
	for ; len(data) >= 8; data = data[8:] {
		a0, c0 = bits.Add64(a0, binary.LittleEndian.Uint64(data), c0)
	}
	// Merge the chains and their pending carries, end-around.
	a, c := bits.Add64(a0, a1, 0)
	a, c = bits.Add64(a, c+c0+c1, 0)
	a += c
	// Reduce to 16 bits; each step preserves the value mod 0xffff.
	a = a&0xffffffff + a>>32
	a = a&0xffff + a>>16
	a = a&0xffff + a>>16
	a = a&0xffff + a>>16
	sum += uint64(bits.ReverseBytes16(uint16(a)))
	i := 0
	for ; i+2 <= len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < len(data) {
		sum += uint64(data[i]) << 8
	}
	return sum
}

// Fold reduces an accumulated sum to the final 16-bit one's-complement
// checksum (not yet inverted).
func Fold(sum uint64) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return uint16(sum)
}

// Sum returns the Internet checksum of data: the one's complement of the
// folded one's-complement sum.
func Sum(data []byte) uint16 {
	return ^Fold(Partial(0, data))
}

// Pseudo accumulates the TCP/UDP pseudo-header: source and destination
// addresses, zero-padded protocol number, and segment length.
func Pseudo(sum uint64, src, dst [4]byte, proto uint8, length uint16) uint64 {
	sum += uint64(src[0])<<8 | uint64(src[1])
	sum += uint64(src[2])<<8 | uint64(src[3])
	sum += uint64(dst[0])<<8 | uint64(dst[1])
	sum += uint64(dst[2])<<8 | uint64(dst[3])
	sum += uint64(proto)
	sum += uint64(length)
	return sum
}

// SumPseudo returns the complete transport checksum over the
// pseudo-header plus segment bytes (header with zeroed checksum field,
// then payload).
func SumPseudo(src, dst [4]byte, proto uint8, segment []byte) uint16 {
	sum := Pseudo(0, src, dst, proto, uint16(len(segment)))
	sum = Partial(sum, segment)
	return ^Fold(sum)
}

// Verify reports whether segment (including its embedded checksum field)
// checks out against the pseudo-header: summing everything including the
// transmitted checksum must yield 0xffff (i.e. folded ^0 == 0).
func Verify(src, dst [4]byte, proto uint8, segment []byte) bool {
	sum := Pseudo(0, src, dst, proto, uint16(len(segment)))
	sum = Partial(sum, segment)
	return Fold(sum) == 0xffff
}
