// Benchmarks regenerating the measured side of every table and figure in
// the paper's evaluation (Section IV). The XOR-count figures (5-8) are
// deterministic and asserted exactly by unit tests; the benchmarks here
// time the corresponding real work so ns/op and MB/s expose the same
// comparisons the paper plots. Run with:
//
//	go test -bench=. -benchmem
//
// and regenerate the paper-formatted tables with cmd/libbench.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/evenodd"
	"repro/internal/liberation"
	"repro/internal/raidsim"
	"repro/internal/rdp"
	"repro/internal/rs"
)

// mustCode builds one of the compared codes or fails the benchmark.
func mustCode(b *testing.B, name string, k, p int) core.Code {
	b.Helper()
	var c core.Code
	var err error
	switch name {
	case "liberation-optimal":
		c, err = liberation.New(k, p)
	case "liberation-original":
		c, err = liberation.NewOriginal(k, p)
	case "evenodd":
		c, err = evenodd.New(k, p)
	case "rdp":
		c, err = rdp.New(k, p)
	case "rs":
		c, err = rs.New(k)
	default:
		b.Fatalf("unknown code %q", name)
	}
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func encodedStripe(b *testing.B, c core.Code, elemSize int) *core.Stripe {
	b.Helper()
	s := core.NewStripe(c.K(), c.W(), elemSize)
	s.FillRandom(rand.New(rand.NewSource(1)))
	if err := c.Encode(s, nil); err != nil {
		b.Fatal(err)
	}
	return s
}

func benchEncode(b *testing.B, c core.Code, elemSize int) {
	s := encodedStripe(b, c, elemSize)
	b.SetBytes(int64(s.DataSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encode(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecode(b *testing.B, c core.Code, elemSize int, erased []int) {
	s := encodedStripe(b, c, elemSize)
	b.SetBytes(int64(s.DataSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decode(s, erased, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Encode times one stripe encoding for each code in Table I
// at k=10 (p=11), 4KB elements.
func BenchmarkTable1Encode(b *testing.B) {
	for _, name := range []string{"evenodd", "rdp", "liberation-original", "liberation-optimal", "rs"} {
		k, p := 10, 11
		b.Run(name, func(b *testing.B) {
			benchEncode(b, mustCode(b, name, k, p), 4096)
		})
	}
}

// BenchmarkTable1Update times a small write (the update-complexity row of
// Table I) for the three array codes.
func BenchmarkTable1Update(b *testing.B) {
	for _, name := range []string{"evenodd", "rdp", "liberation-optimal"} {
		b.Run(name, func(b *testing.B) {
			c := mustCode(b, name, 10, 11)
			u, ok := c.(core.Updater)
			if !ok {
				b.Fatal("code does not support updates")
			}
			s := encodedStripe(b, c, 4096)
			old := append([]byte(nil), s.Elem(3, 1)...)
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Elem(3, 1)[0] ^= 0xff
				if _, err := u.Update(s, 3, 1, old, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5Encode / BenchmarkFig6Encode: encoding work for the four
// compared codes, p varying with k (Fig 5) and p=31 (Fig 6).
func BenchmarkFig5Encode(b *testing.B) {
	for _, name := range []string{"evenodd", "rdp", "liberation-original", "liberation-optimal"} {
		for _, k := range []int{4, 8, 16} {
			p := core.NextOddPrime(k)
			if name == "rdp" {
				p = core.NextOddPrime(k + 1)
			}
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				benchEncode(b, mustCode(b, name, k, p), 4096)
			})
		}
	}
}

func BenchmarkFig6Encode(b *testing.B) {
	for _, name := range []string{"evenodd", "rdp", "liberation-original", "liberation-optimal"} {
		for _, k := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/k=%d/p=31", name, k), func(b *testing.B) {
				benchEncode(b, mustCode(b, name, k, 31), 4096)
			})
		}
	}
}

// BenchmarkFig7Decode / BenchmarkFig8Decode: double-data-erasure decoding
// work, p varying with k (Fig 7) and p=31 (Fig 8).
func BenchmarkFig7Decode(b *testing.B) {
	for _, name := range []string{"evenodd", "rdp", "liberation-original", "liberation-optimal"} {
		for _, k := range []int{4, 8, 16} {
			p := core.NextOddPrime(k)
			if name == "rdp" {
				p = core.NextOddPrime(k + 1)
			}
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				benchDecode(b, mustCode(b, name, k, p), 4096, []int{0, k / 2})
			})
		}
	}
}

func BenchmarkFig8Decode(b *testing.B) {
	for _, name := range []string{"evenodd", "rdp", "liberation-original", "liberation-optimal"} {
		for _, k := range []int{4, 16} {
			b.Run(fmt.Sprintf("%s/k=%d/p=31", name, k), func(b *testing.B) {
				benchDecode(b, mustCode(b, name, k, 31), 4096, []int{0, k / 2})
			})
		}
	}
}

// BenchmarkFig9Encode: encoding throughput against element size for
// p = 5, 7, 11 (original vs optimal), reproducing Figure 9's sweep.
func BenchmarkFig9Encode(b *testing.B) {
	for _, p := range []int{5, 7, 11} {
		for logSize := 12; logSize <= 16; logSize++ {
			for _, name := range []string{"liberation-original", "liberation-optimal"} {
				b.Run(fmt.Sprintf("p=%d/elem=%dKB/%s", p, 1<<(logSize-10), name), func(b *testing.B) {
					benchEncode(b, mustCode(b, name, p, p), 1<<logSize)
				})
			}
		}
	}
}

// BenchmarkFig10Encode / BenchmarkFig11Encode: encoding throughput vs k,
// original vs optimal, at 4KB and 8KB elements.
func BenchmarkFig10Encode(b *testing.B) {
	for _, elem := range []int{4096, 8192} {
		for _, k := range []int{4, 10, 16, 22} {
			p := core.NextOddPrime(k)
			for _, name := range []string{"liberation-original", "liberation-optimal"} {
				b.Run(fmt.Sprintf("elem=%dKB/k=%d/%s", elem/1024, k, name), func(b *testing.B) {
					benchEncode(b, mustCode(b, name, k, p), elem)
				})
			}
		}
	}
}

func BenchmarkFig11Encode(b *testing.B) {
	for _, elem := range []int{4096, 8192} {
		for _, k := range []int{4, 16} {
			for _, name := range []string{"liberation-original", "liberation-optimal"} {
				b.Run(fmt.Sprintf("elem=%dKB/k=%d/p=31/%s", elem/1024, k, name), func(b *testing.B) {
					benchEncode(b, mustCode(b, name, k, 31), elem)
				})
			}
		}
	}
}

// BenchmarkFig12Decode / BenchmarkFig13Decode: decoding throughput vs k.
// The original decoder rebuilds its decoding matrix and schedule on every
// call (as Jerasure's lazy scheduling does) — the overhead the paper's
// "at most 155%" speedup comes from.
func BenchmarkFig12Decode(b *testing.B) {
	for _, elem := range []int{4096, 8192} {
		for _, k := range []int{5, 11, 17} {
			p := core.NextOddPrime(k)
			for _, name := range []string{"liberation-original", "liberation-optimal"} {
				b.Run(fmt.Sprintf("elem=%dKB/k=%d/%s", elem/1024, k, name), func(b *testing.B) {
					benchDecode(b, mustCode(b, name, k, p), elem, []int{1, k - 1})
				})
			}
		}
	}
}

func BenchmarkFig13Decode(b *testing.B) {
	for _, elem := range []int{4096, 8192} {
		for _, k := range []int{5, 17} {
			for _, name := range []string{"liberation-original", "liberation-optimal"} {
				b.Run(fmt.Sprintf("elem=%dKB/k=%d/p=31/%s", elem/1024, k, name), func(b *testing.B) {
					benchDecode(b, mustCode(b, name, k, 31), elem, []int{1, k - 1})
				})
			}
		}
	}
}

// BenchmarkScrub times the single-column error correction pass (Section
// III's silent-corruption repair) over one stripe.
func BenchmarkScrub(b *testing.B) {
	c, err := liberation.New(10, 11)
	if err != nil {
		b.Fatal(err)
	}
	s := encodedStripe(b, c, 4096)
	s.Strips[3][100] ^= 0x5a
	b.SetBytes(int64(s.DataSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := c.CorrectColumn(s, nil)
		if err != nil {
			b.Fatal(err)
		}
		if col != core.CleanColumn {
			s.Strips[3][100] ^= 0x5a // re-corrupt for the next round
		}
	}
}

// BenchmarkDegradedRead compares healthy and two-failure reads on the
// simulated array — the user-visible cost the decoder's speed determines.
func BenchmarkDegradedRead(b *testing.B) {
	code, err := liberation.NewAuto(8)
	if err != nil {
		b.Fatal(err)
	}
	newArray := func(b *testing.B, fail bool) *raidsim.Array {
		b.Helper()
		a, err := raidsim.New(code, 4096, 16)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, a.Capacity())
		rand.New(rand.NewSource(1)).Read(data)
		if err := a.Write(0, data); err != nil {
			b.Fatal(err)
		}
		if fail {
			if err := a.FailDisk(0); err != nil {
				b.Fatal(err)
			}
			if err := a.FailDisk(4); err != nil {
				b.Fatal(err)
			}
		}
		return a
	}
	buf := make([]byte, 1<<20)
	for _, mode := range []struct {
		name string
		fail bool
	}{{"healthy", false}, {"two-disks-down", true}} {
		b.Run(mode.name, func(b *testing.B) {
			a := newArray(b, mode.fail)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Read(0, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRebuild times a whole-array rebuild after a double failure —
// the window the durability model cares about.
func BenchmarkRebuild(b *testing.B) {
	code, err := liberation.NewAuto(8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := raidsim.New(code, 4096, 16)
		if err != nil {
			b.Fatal(err)
		}
		data := make([]byte, a.Capacity())
		rand.New(rand.NewSource(2)).Read(data)
		if err := a.Write(0, data); err != nil {
			b.Fatal(err)
		}
		if err := a.FailDisk(1); err != nil {
			b.Fatal(err)
		}
		if err := a.FailDisk(6); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(a.Capacity()))
		b.StartTimer()
		if err := a.Rebuild(); err != nil {
			b.Fatal(err)
		}
	}
}
