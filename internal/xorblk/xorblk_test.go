package xorblk

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refXor is the obvious byte-loop reference.
func refXor(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

func TestXorAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 200; n++ {
		a := make([]byte, n)
		b := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		dst := make([]byte, n)
		Xor(dst, a, b)
		if !bytes.Equal(dst, refXor(a, b)) {
			t.Fatalf("Xor wrong at n=%d", n)
		}
		acc := append([]byte(nil), a...)
		XorInto(acc, b)
		if !bytes.Equal(acc, refXor(a, b)) {
			t.Fatalf("XorInto wrong at n=%d", n)
		}
	}
}

func TestXorAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := make([]byte, 100)
	b := make([]byte, 100)
	rng.Read(a)
	rng.Read(b)
	want := refXor(a, b)
	dst := append([]byte(nil), a...)
	Xor(dst, dst, b) // dst aliases a
	if !bytes.Equal(dst, want) {
		t.Error("Xor with dst==a wrong")
	}
	dst = append([]byte(nil), b...)
	Xor(dst, a, dst) // dst aliases b
	if !bytes.Equal(dst, want) {
		t.Error("Xor with dst==b wrong")
	}
}

func TestXorProperties(t *testing.T) {
	// Self-inverse: (a ^ b) ^ b == a, for arbitrary slices.
	if err := quick.Check(func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		acc := append([]byte(nil), a...)
		XorInto(acc, b)
		XorInto(acc, b)
		return bytes.Equal(acc, a)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestXorMany(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srcs := make([][]byte, 5)
	want := make([]byte, 77)
	for i := range srcs {
		srcs[i] = make([]byte, 77)
		rng.Read(srcs[i])
		for j := range want {
			want[j] ^= srcs[i][j]
		}
	}
	dst := make([]byte, 77)
	XorMany(dst, srcs...)
	if !bytes.Equal(dst, want) {
		t.Error("XorMany wrong")
	}
}

// TestRaggedAndMisaligned checks every kernel against the byte-loop
// reference for element sizes that are not word or vector multiples (1, 7,
// 31, 4097, ...) and for buffers whose first byte is not 8-byte aligned —
// the shapes where a broken head/tail handoff in the underlying region
// XOR silently corrupts or drops bytes.
func TestRaggedAndMisaligned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 31, 32, 33, 63, 100, 1023, 4097} {
		for off := 0; off < 8; off++ {
			// Carve buffers at byte offset off of a larger backing so the
			// kernels see genuinely misaligned heads.
			carve := func() []byte {
				b := make([]byte, n+16)
				rng.Read(b)
				return b[off : off+n : off+n]
			}
			dst0, a, b, c, d := carve(), carve(), carve(), carve(), carve()

			want := append([]byte(nil), dst0...)
			got := append(make([]byte, off), dst0...)[off:]
			for i := 0; i < n; i++ {
				want[i] = a[i] ^ b[i]
			}
			Xor(got, a, b)
			if !bytes.Equal(got, want) {
				t.Fatalf("Xor wrong at n=%d off=%d", n, off)
			}

			check := func(name string, nsrc int, fn func(dst []byte)) {
				want := append([]byte(nil), dst0...)
				srcs := [][]byte{a, b, c, d}
				for i := 0; i < n; i++ {
					for _, s := range srcs[:nsrc] {
						want[i] ^= s[i]
					}
				}
				got := append(make([]byte, off), dst0...)[off:]
				fn(got)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s wrong at n=%d off=%d", name, n, off)
				}
			}
			check("XorInto", 1, func(dst []byte) { XorInto(dst, a) })
			check("XorInto2", 2, func(dst []byte) { XorInto2(dst, a, b) })
			check("XorInto3", 3, func(dst []byte) { XorInto3(dst, a, b, c) })
			check("XorInto4", 4, func(dst []byte) { XorInto4(dst, a, b, c, d) })
			check("XorMany", 4, func(dst []byte) {
				tmp := make([]byte, n)
				XorMany(tmp, dst, a, b, c, d)
				copy(dst, tmp)
			})
		}
	}
}

func TestXorInto4(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{0, 7, 8, 16, 33, 100, 4097} {
		d0 := make([]byte, n)
		a := make([]byte, n)
		b := make([]byte, n)
		c := make([]byte, n)
		d := make([]byte, n)
		for _, s := range [][]byte{d0, a, b, c, d} {
			rng.Read(s)
		}
		want := append([]byte(nil), d0...)
		XorInto(want, a)
		XorInto(want, b)
		XorInto(want, c)
		XorInto(want, d)
		got := append([]byte(nil), d0...)
		XorInto4(got, a, b, c, d)
		if !bytes.Equal(got, want) {
			t.Fatalf("XorInto4 wrong at n=%d", n)
		}
	}
}

func TestIsZero(t *testing.T) {
	for n := 0; n < 64; n++ {
		b := make([]byte, n)
		if !IsZero(b) {
			t.Fatalf("IsZero(zeros[%d]) = false", n)
		}
		if n > 0 {
			for pos := 0; pos < n; pos++ {
				b[pos] = 1
				if IsZero(b) {
					t.Fatalf("IsZero missed byte at %d/%d", pos, n)
				}
				b[pos] = 0
			}
		}
	}
}

// TestLengthMismatchPanics pins the explicit length checks. XORBytes
// itself only panics when dst is shorter than a source and silently XORs a
// prefix when a source is longer, so every kernel must reject a slice of
// the wrong length in every argument position, shorter or longer, before
// it writes a byte of dst.
func TestLengthMismatchPanics(t *testing.T) {
	kernels := []struct {
		name string
		args int // dst plus sources
		call func(s [][]byte)
	}{
		{"Xor", 3, func(s [][]byte) { Xor(s[0], s[1], s[2]) }},
		{"XorInto", 2, func(s [][]byte) { XorInto(s[0], s[1]) }},
		{"XorInto2", 3, func(s [][]byte) { XorInto2(s[0], s[1], s[2]) }},
		{"XorInto3", 4, func(s [][]byte) { XorInto3(s[0], s[1], s[2], s[3]) }},
		{"XorInto4", 5, func(s [][]byte) { XorInto4(s[0], s[1], s[2], s[3], s[4]) }},
		{"XorMany", 4, func(s [][]byte) { XorMany(s[0], s[1:]...) }},
	}
	const n = 64
	for _, k := range kernels {
		for pos := 0; pos < k.args; pos++ {
			for _, delta := range []int{-1, +1} {
				args := make([][]byte, k.args)
				for i := range args {
					size := n
					if i == pos {
						size += delta
					}
					args[i] = bytes.Repeat([]byte{byte(0x10 + i)}, size)
				}
				dst0 := append([]byte(nil), args[0]...)
				t.Run(fmt.Sprintf("%s/arg%d/len%+d", k.name, pos, delta), func(t *testing.T) {
					defer func() {
						if recover() == nil {
							t.Error("no panic")
						}
						if !bytes.Equal(args[0], dst0) {
							t.Error("dst written before the panic")
						}
					}()
					k.call(args)
				})
			}
		}
	}
	t.Run("XorMany/no-sources", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		XorMany(make([]byte, n))
	})
}

// TestIsZeroChunkBoundaries walks IsZero across the 4096-byte chunks it
// compares against its shared zero block: a lone nonzero byte first, last,
// or either side of any chunk boundary must be seen.
func TestIsZeroChunkBoundaries(t *testing.T) {
	const chunk = 4096
	for _, n := range []int{4095, 4096, 4097, 8193, 65536} {
		b := make([]byte, n)
		if !IsZero(b) {
			t.Fatalf("IsZero(zeros[%d]) = false", n)
		}
		positions := []int{0, n - 1}
		for edge := chunk; edge < n; edge += chunk {
			positions = append(positions, edge-1, edge)
		}
		for _, pos := range positions {
			b[pos] = 0x80
			if IsZero(b) {
				t.Fatalf("IsZero missed byte at %d/%d", pos, n)
			}
			b[pos] = 0
		}
	}
}

func BenchmarkXorInto4K(b *testing.B) {
	dst := make([]byte, 4096)
	src := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		XorInto(dst, src)
	}
}

func BenchmarkXorInto64K(b *testing.B) {
	dst := make([]byte, 65536)
	src := make([]byte, 65536)
	b.SetBytes(65536)
	for i := 0; i < b.N; i++ {
		XorInto(dst, src)
	}
}

// BenchmarkXorIntoMulti compares the fused kernels with XorInto: each
// sub-benchmark accounts bytes per source accumulated, so MB/s is directly
// comparable across XorInto, XorInto2 and XorInto3 (the fused kernels
// should be at least as fast — they save calls and length checks).
func BenchmarkXorIntoMulti(b *testing.B) {
	for _, size := range []int{4096, 65536} {
		dst := make([]byte, size)
		a := make([]byte, size)
		c := make([]byte, size)
		d := make([]byte, size)
		b.Run(fmt.Sprintf("XorInto/size=%d", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				XorInto(dst, a)
			}
		})
		b.Run(fmt.Sprintf("XorInto2/size=%d", size), func(b *testing.B) {
			b.SetBytes(2 * int64(size))
			for i := 0; i < b.N; i++ {
				XorInto2(dst, a, c)
			}
		})
		b.Run(fmt.Sprintf("XorInto3/size=%d", size), func(b *testing.B) {
			b.SetBytes(3 * int64(size))
			for i := 0; i < b.N; i++ {
				XorInto3(dst, a, c, d)
			}
		})
	}
}

func TestXorIntoMulti(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 7, 8, 33, 100} {
		a := make([]byte, n)
		b := make([]byte, n)
		c := make([]byte, n)
		d0 := make([]byte, n)
		rng.Read(a)
		rng.Read(b)
		rng.Read(c)
		rng.Read(d0)

		want := append([]byte(nil), d0...)
		XorInto(want, a)
		XorInto(want, b)
		got := append([]byte(nil), d0...)
		XorInto2(got, a, b)
		if !bytes.Equal(got, want) {
			t.Fatalf("XorInto2 wrong at n=%d", n)
		}

		XorInto(want, c)
		got = append([]byte(nil), d0...)
		XorInto3(got, a, b, c)
		if !bytes.Equal(got, want) {
			t.Fatalf("XorInto3 wrong at n=%d", n)
		}
	}
}
