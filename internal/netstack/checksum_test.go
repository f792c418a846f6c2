package netstack

import (
	"bytes"
	"testing"
)

// refChecksum is the byte-pair RFC 1071 loop Checksum replaced, kept as
// the reference. Its accumulator is 64 bits wide so no initial sum can
// wrap it.
func refChecksum(b []byte, initial uint32) uint16 {
	sum := uint64(initial)
	for len(b) >= 2 {
		sum += uint64(b[0])<<8 | uint64(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func TestChecksumMatchesReference(t *testing.T) {
	ones := bytes.Repeat([]byte{0xff}, 1601)
	zeros := make([]byte, 1601)
	for n := 0; n <= len(ones); n++ {
		for _, init := range []uint32{0, 1, 0xffff, 0x1fffe, 0xffffffff} {
			for _, b := range [][]byte{ones[:n], zeros[:n]} {
				if got, want := Checksum(b, init), refChecksum(b, init); got != want {
					t.Fatalf("len %d byte %#x initial %#x: got %#04x, want %#04x", n, b[0:min(n, 1)], init, got, want)
				}
			}
		}
	}
}

func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{0xff}, uint32(0))
	f.Add(bytes.Repeat([]byte{0xff}, 1460), uint32(0xffffffff))
	f.Add(bytes.Repeat([]byte{0xff}, 63), uint32(0x1fffe))
	f.Add([]byte{0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x40, 0x00, 0x40}, uint32(0x2a51))
	f.Fuzz(func(t *testing.T, b []byte, initial uint32) {
		if got, want := Checksum(b, initial), refChecksum(b, initial); got != want {
			t.Fatalf("len %d initial %#x: got %#04x, want %#04x", len(b), initial, got, want)
		}
	})
}

func BenchmarkChecksum1460(b *testing.B) {
	buf := make([]byte, 1460)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Checksum(buf, uint32(i))
	}
}
