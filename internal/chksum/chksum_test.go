package chksum

import (
	"testing"
	"testing/quick"
)

// refSum is the obvious 16-bit-at-a-time reference implementation.
func refSum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

func TestSumKnownVectors(t *testing.T) {
	// RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 -> sum ddf2,
	// checksum 220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Sum(data); got != 0x220d {
		t.Errorf("Sum = %#04x, want 0x220d", got)
	}
	if got := Sum(nil); got != 0xffff {
		t.Errorf("Sum(nil) = %#04x, want 0xffff", got)
	}
	if got := Sum([]byte{0xff, 0xff}); got != 0x0000 {
		t.Errorf("Sum(ffff) = %#04x, want 0", got)
	}
}

func TestSumMatchesReference(t *testing.T) {
	f := func(data []byte) bool {
		return Sum(data) == refSum(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialComposesAcrossEvenBoundaries(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a)%2 == 1 {
			a = a[:len(a)-1] // intermediate chunks must be even
		}
		whole := append(append([]byte{}, a...), b...)
		split := Partial(Partial(0, a), b)
		return Fold(split) == Fold(Partial(0, whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOddLengthTrailingByte(t *testing.T) {
	if got, want := Sum([]byte{0xab}), refSum([]byte{0xab}); got != want {
		t.Errorf("odd-length Sum = %#04x, want %#04x", got, want)
	}
	if got, want := Sum([]byte{1, 2, 3}), refSum([]byte{1, 2, 3}); got != want {
		t.Errorf("3-byte Sum = %#04x, want %#04x", got, want)
	}
}

func TestSumPseudoVerifyRoundTrip(t *testing.T) {
	src := [4]byte{10, 0, 0, 1}
	dst := [4]byte{10, 0, 0, 2}
	f := func(payload []byte, proto uint8) bool {
		// Build a fake segment: 4-byte header with a checksum field
		// at offset 2, then payload.
		seg := make([]byte, 4+len(payload))
		seg[0] = 0x12
		seg[1] = 0x34
		copy(seg[4:], payload)
		ck := SumPseudo(src, dst, proto, seg)
		seg[2] = byte(ck >> 8)
		seg[3] = byte(ck)
		return Verify(src, dst, proto, seg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	src := [4]byte{1, 2, 3, 4}
	dst := [4]byte{5, 6, 7, 8}
	seg := make([]byte, 64)
	for i := range seg {
		seg[i] = byte(i * 7)
	}
	seg[10], seg[11] = 0, 0
	ck := SumPseudo(src, dst, 17, seg)
	seg[10] = byte(ck >> 8)
	seg[11] = byte(ck)
	if !Verify(src, dst, 17, seg) {
		t.Fatal("valid segment failed verification")
	}
	seg[20] ^= 0x01
	if Verify(src, dst, 17, seg) {
		t.Fatal("corrupted segment passed verification")
	}
	seg[20] ^= 0x01
	if Verify(src, dst, 6, seg) {
		t.Fatal("wrong proto passed verification")
	}
}

func TestFoldIdempotent(t *testing.T) {
	f := func(x uint64) bool {
		v := Fold(x)
		return Fold(uint64(v)) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSum4K(b *testing.B) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		sink = Sum(data)
	}
}
