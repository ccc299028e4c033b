package chksum

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// refPartial is the byte-pair oracle: the straightforward loop that adds
// one big-endian 16-bit word at a time, with an odd final byte padded
// with zero.
func refPartial(sum uint64, data []byte) uint64 {
	i := 0
	for ; i+2 <= len(data); i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < len(data) {
		sum += uint64(data[i]) << 8
	}
	return sum
}

// TestPartialSaturatedBuffers drives both carry chains to saturation:
// buffers of all-0xff, 0xfe and 0x80 bytes make nearly every 64-bit add
// carry out. Every length from 0 to 2048 covers each split between the
// 64-byte unrolled loop, the 8-byte tail loop and the 16-bit leftovers.
func TestPartialSaturatedBuffers(t *testing.T) {
	starts := []uint64{0, 1, 0xffff, 1 << 40}
	for _, b := range []byte{0xff, 0xfe, 0x80} {
		buf := bytes.Repeat([]byte{b}, 2048)
		for n := 0; n <= len(buf); n++ {
			for _, s := range starts {
				got, want := Fold(Partial(s, buf[:n])), Fold(refPartial(s, buf[:n]))
				if got != want {
					t.Fatalf("byte %#02x, len %d, start %#x: Fold(Partial) = %#04x, oracle %#04x",
						b, n, s, got, want)
				}
			}
		}
	}
}

// TestPartialFoldEdges pins the two rarest steps of the reduction, which
// random data almost never reaches.
func TestPartialFoldEdges(t *testing.T) {
	le := func(ws ...uint64) []byte {
		b := make([]byte, 8*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint64(b[8*i:], w)
		}
		return b
	}
	const ones = ^uint64(0)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		// Chain 0 ends at 2^64-2 and chain 1 at 1, each with a carry
		// pending, so merging the chains carries out once more.
		{"final end-around carry", le(ones, 0, ones, 0, ones, 2, ones, ones)},
		// The 64-bit sum 0xffffffff00010000 folds to 0x10000 after three
		// 16-bit steps and needs a fourth.
		{"fourth 16-bit fold", le(0xffffffff00010000)},
	} {
		for _, s := range []uint64{0, 1, 0xffff} {
			got, want := Fold(Partial(s, tc.data)), Fold(refPartial(s, tc.data))
			if got != want {
				t.Errorf("%s, start %#x: Fold(Partial) = %#04x, oracle %#04x", tc.name, s, got, want)
			}
		}
	}
}

// FuzzPartialMatchesReference checks the wide kernel against the
// byte-pair oracle for any data and start sum below 2^48, starting at an
// offset of 0-7 bytes into a larger buffer so the 64-bit loads are
// unaligned.
func FuzzPartialMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint8(0))
	f.Add([]byte{0x45, 0x00, 0x00, 0x54, 0x12}, uint64(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff}, 129), uint64(0xffff), uint8(5))
	f.Add(bytes.Repeat([]byte{0x80, 0x01}, 100), uint64(1)<<40, uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, start uint64, off uint8) {
		s := start & (1<<48 - 1)
		o := int(off % 8)
		buf := make([]byte, o+len(data))
		copy(buf[o:], data)
		got, want := Fold(Partial(s, buf[o:])), Fold(refPartial(s, data))
		if got != want {
			t.Errorf("len %d, start %#x, offset %d: Fold(Partial) = %#04x, oracle %#04x",
				len(data), s, o, got, want)
		}
	})
}

// sink keeps the benchmarked results live so the calls are not
// eliminated as dead code.
var sink uint16

func BenchmarkSum20(b *testing.B) {
	hdr := []byte{
		0x45, 0x00, 0x10, 0x28, 0x00, 0x07, 0x00, 0x00, 0x40, 0x06,
		0x00, 0x00, 0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02,
	}
	b.SetBytes(int64(len(hdr)))
	for i := 0; i < b.N; i++ {
		sink = Sum(hdr)
	}
}

func BenchmarkSumPseudo4K(b *testing.B) {
	seg := make([]byte, 4096)
	for i := range seg {
		seg[i] = byte(i * 13)
	}
	src := [4]byte{10, 0, 0, 1}
	dst := [4]byte{10, 0, 0, 2}
	b.SetBytes(int64(len(seg)))
	for i := 0; i < b.N; i++ {
		sink = SumPseudo(src, dst, 6, seg)
	}
}
