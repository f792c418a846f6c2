package netstack

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// IPv4 is an IPv4 header without options (IHL always 5). GQ's gateway
// rewrites source and destination addresses in flight (NAT, redirection),
// so checksums are recomputed on Marshal rather than patched incrementally.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	Flags    uint8 // 3 bits: reserved, DF, MF
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Src, Dst Addr
	// Length is the total datagram length. It is filled in by Marshal from
	// the payload size and exposed for inspection after Unmarshal.
	Length uint16
}

// IPv4HeaderLen is the fixed header size used by the simulated stack.
const IPv4HeaderLen = 20

// DefaultTTL is the TTL hosts use for originated datagrams.
const DefaultTTL = 64

// Marshal appends the header followed by payload to dst, computing length
// and checksum.
func (ip *IPv4) Marshal(dst []byte, payload []byte) []byte {
	total := IPv4HeaderLen + len(payload)
	ip.Length = uint16(total)
	start := len(dst)
	dst = append(dst, 0x45, ip.TOS)
	dst = binary.BigEndian.AppendUint16(dst, ip.Length)
	dst = binary.BigEndian.AppendUint16(dst, ip.ID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	dst = append(dst, ip.TTL, ip.Protocol)
	dst = binary.BigEndian.AppendUint16(dst, 0) // checksum placeholder
	dst = binary.BigEndian.AppendUint32(dst, uint32(ip.Src))
	dst = binary.BigEndian.AppendUint32(dst, uint32(ip.Dst))
	sum := Checksum(dst[start:], 0)
	binary.BigEndian.PutUint16(dst[start+10:], sum)
	return append(dst, payload...)
}

// Unmarshal decodes the header from b, verifies the checksum, and returns
// the payload (trimmed to the header's declared length).
func (ip *IPv4) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < IPv4HeaderLen {
		return nil, fmt.Errorf("netstack: IPv4 header too short (%d bytes)", len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return nil, fmt.Errorf("netstack: IP version %d, want 4", v)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return nil, fmt.Errorf("netstack: bad IHL %d", ihl)
	}
	if Checksum(b[:ihl], 0) != 0 {
		return nil, fmt.Errorf("netstack: IPv4 header checksum mismatch")
	}
	ip.TOS = b[1]
	ip.Length = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ff := binary.BigEndian.Uint16(b[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Src = AddrFromSlice(b[12:16])
	ip.Dst = AddrFromSlice(b[16:20])
	if int(ip.Length) < ihl || int(ip.Length) > len(b) {
		return nil, fmt.Errorf("netstack: IPv4 length %d inconsistent with frame %d", ip.Length, len(b))
	}
	return b[ihl:ip.Length], nil
}

// Checksum computes the Internet checksum (RFC 1071) over b seeded with an
// initial partial sum. The result is the ones-complement value ready to be
// stored; a checksum over data that already includes a valid checksum field
// yields zero.
//
// The ones-complement sum does not depend on word size (2^64 ≡ 2^16 ≡ 1
// modulo 2^16-1), so b is summed eight bytes at a time on a 64-bit carry
// chain and folded down to 16 bits at the end.
func Checksum(b []byte, initial uint32) uint16 {
	sum, carry := uint64(initial), uint64(0)
	for len(b) >= 32 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[8:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[16:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b[24:]), carry)
		b = b[32:]
	}
	for len(b) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), carry)
		b = b[8:]
	}
	if len(b) > 0 {
		// Zero-pad the tail: an odd last byte is the high half of its word.
		var tail [8]byte
		copy(tail[:], b)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(tail[:]), carry)
	}
	s := sum>>32 + sum&0xffffffff + carry
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// pseudoHeaderSum computes the partial sum of the TCP/UDP pseudo-header.
func pseudoHeaderSum(src, dst Addr, proto uint8, length int) uint32 {
	var sum uint32
	sum += uint32(src)>>16 + uint32(src)&0xffff
	sum += uint32(dst)>>16 + uint32(dst)&0xffff
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}
