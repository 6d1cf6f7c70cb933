// Package xorblk provides the region-XOR kernels for erasure coding.
//
// All RAID-6 array codes in this repository perform their arithmetic as
// XORs of fixed-size byte blocks ("elements" in the paper's terminology:
// one element is a machine-word multiple, typically a 4KB or 8KB block, so
// that 8*elemSize codewords are encoded in parallel by each block XOR).
// The kernels here are the only place data bytes are actually touched;
// everything above them manipulates element indices.
//
// Every XOR runs on the standard library's region XOR,
// crypto/subtle.XORBytes (SIMD assembly on amd64, arm64 and ppc64x, a
// portable word loop elsewhere), and IsZero on bytes.Equal against a
// shared zero block. Both handle unaligned heads and ragged tails
// themselves. The multi-source
// kernels make one XORBytes pass per source over the destination, which
// at element sizes stays L1-resident between passes; fusing sources into
// one call saves call overhead and length checks, not destination passes.
//
// XORBytes only panics when dst is shorter than the sources, and silently
// XORs a prefix when a source is longer, so every kernel checks that all
// its slices have exactly len(dst) bytes before any byte is written.
package xorblk

import (
	"bytes"
	"crypto/subtle"
)

// sameLen panics unless every slice in srcs has length n.
func sameLen(n int, srcs ...[]byte) {
	for _, s := range srcs {
		if len(s) != n {
			panic("xorblk: length mismatch")
		}
	}
}

// Xor sets dst = a ^ b. All three slices must have the same length and may
// not partially overlap (dst == a or dst == b is allowed).
func Xor(dst, a, b []byte) {
	sameLen(len(dst), a, b)
	subtle.XORBytes(dst, a, b)
}

// XorInto sets dst ^= src. Both slices must have the same length.
func XorInto(dst, src []byte) {
	sameLen(len(dst), src)
	subtle.XORBytes(dst, dst, src)
}

// XorInto2 sets dst ^= a ^ b.
func XorInto2(dst, a, b []byte) {
	sameLen(len(dst), a, b)
	subtle.XORBytes(dst, dst, a)
	subtle.XORBytes(dst, dst, b)
}

// XorInto3 sets dst ^= a ^ b ^ c.
func XorInto3(dst, a, b, c []byte) {
	sameLen(len(dst), a, b, c)
	subtle.XORBytes(dst, dst, a)
	subtle.XORBytes(dst, dst, b)
	subtle.XORBytes(dst, dst, c)
}

// XorInto4 sets dst ^= a ^ b ^ c ^ d, the widest source count the
// schedule compilers fuse into one call.
func XorInto4(dst, a, b, c, d []byte) {
	sameLen(len(dst), a, b, c, d)
	subtle.XORBytes(dst, dst, a)
	subtle.XORBytes(dst, dst, b)
	subtle.XORBytes(dst, dst, c)
	subtle.XORBytes(dst, dst, d)
}

// XorMany sets dst = srcs[0] ^ srcs[1] ^ ... ^ srcs[len-1].
// It requires at least one source. Sources must all match len(dst).
func XorMany(dst []byte, srcs ...[]byte) {
	if len(srcs) == 0 {
		panic("xorblk: XorMany requires at least one source")
	}
	sameLen(len(dst), srcs...)
	copy(dst, srcs[0])
	for _, s := range srcs[1:] {
		subtle.XORBytes(dst, dst, s)
	}
}

// zeroChunk is the shared all-zero block IsZero compares against.
var zeroChunk [4096]byte

// IsZero reports whether every byte of b is zero.
func IsZero(b []byte) bool {
	for len(b) > len(zeroChunk) {
		if !bytes.Equal(b[:len(zeroChunk)], zeroChunk[:]) {
			return false
		}
		b = b[len(zeroChunk):]
	}
	return bytes.Equal(b, zeroChunk[:len(b)])
}
