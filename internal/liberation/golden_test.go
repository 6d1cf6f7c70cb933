package liberation

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// TestGoldenParitiesP3 pins the exact parity bytes of a hand-computed
// p=3, k=3 codeword with 1-byte elements. Data columns (by rows 0..2):
//
//	col0 = [a0 a1 a2] = [0x01 0x02 0x04]
//	col1 = [b0 b1 b2] = [0x08 0x10 0x20]
//	col2 = [c0 c1 c2] = [0x40 0x80 0xff]
//
// Row parity: P[i] = a_i ^ b_i ^ c_i.
// Anti-diagonals (x - y = i mod 3) plus extras a_1 = b[<-2>][<-2>] =
// b[1][1], a_2 = b[<-3>][<-4>] = b[0][2]:
//
//	Q[0] = a0 ^ b1 ^ c2
//	Q[1] = a1 ^ b2 ^ c0 ^ b[1][1](=0x10)
//	Q[2] = a2 ^ b0 ^ c1 ^ b[0][2](=0x40)
func TestGoldenParitiesP3(t *testing.T) {
	c, err := New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStripe(3, 3, 1)
	data := [3][3]byte{ // [col][row]
		{0x01, 0x02, 0x04},
		{0x08, 0x10, 0x20},
		{0x40, 0x80, 0xff},
	}
	for col := range data {
		for row, v := range data[col] {
			s.Elem(col, row)[0] = v
		}
	}
	if err := c.Encode(s, nil); err != nil {
		t.Fatal(err)
	}
	wantP := [3]byte{0x01 ^ 0x08 ^ 0x40, 0x02 ^ 0x10 ^ 0x80, 0x04 ^ 0x20 ^ 0xff}
	wantQ := [3]byte{
		0x01 ^ 0x10 ^ 0xff,
		0x02 ^ 0x20 ^ 0x40 ^ 0x10,
		0x04 ^ 0x08 ^ 0x80 ^ 0x40,
	}
	for i := 0; i < 3; i++ {
		if got := s.Elem(3, i)[0]; got != wantP[i] {
			t.Errorf("P[%d] = %#02x, want %#02x", i, got, wantP[i])
		}
		if got := s.Elem(4, i)[0]; got != wantQ[i] {
			t.Errorf("Q[%d] = %#02x, want %#02x", i, got, wantQ[i])
		}
	}
}

// FuzzDecode feeds arbitrary data bytes and erasure choices through an
// encode/erase/decode round trip on a fixed shape. `go test` runs the
// seed corpus; `go test -fuzz=FuzzDecode` explores further.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0}, uint8(0), uint8(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(6))
	f.Add([]byte("liberation codes"), uint8(5), uint8(5))
	c, err := New(5, 5)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, e1, e2 uint8) {
		s := core.NewStripe(5, 5, 4)
		for i := 0; i < len(data) && i < s.DataSize(); i++ {
			s.Strips[i/(5*4)][i%(5*4)] = data[i]
		}
		if err := c.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		orig := s.Clone()
		a, b := int(e1)%7, int(e2)%7
		erased := []int{a}
		if b != a {
			erased = append(erased, b)
		}
		for _, e := range erased {
			for i := range s.Strips[e] {
				s.Strips[e][i] = 0xcc
			}
		}
		if err := c.Decode(s, erased, nil); err != nil {
			t.Fatal(err)
		}
		if !s.Equal(orig) {
			t.Fatalf("decode(%v) did not restore the stripe", erased)
		}
	})
}

// FuzzCorrectColumn checks that the scrubber either repairs a single
// corrupted strip exactly or reports an error — never silently produces a
// stripe that differs from the original.
func FuzzCorrectColumn(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{0xff})
	f.Add(uint8(4), uint8(3), []byte{1, 2, 3})
	c, err := New(4, 5)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, colRaw, offRaw uint8, noise []byte) {
		if len(noise) == 0 {
			return
		}
		s := core.NewStripe(4, 5, 4)
		s.FillRandom(rand.New(rand.NewSource(int64(colRaw)*256 + int64(offRaw))))
		if err := c.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		orig := s.Clone()
		col := int(colRaw) % 6
		strip := s.Strips[col]
		off := int(offRaw) % len(strip)
		changed := false
		for i, b := range noise {
			if b != 0 && off+i < len(strip) {
				strip[off+i] ^= b
				changed = true
			}
		}
		fixed, err := c.CorrectColumn(s, nil)
		if err != nil {
			return // ambiguous is acceptable; silence is not
		}
		if !changed {
			if fixed != core.CleanColumn {
				t.Fatalf("clean stripe 'repaired' at column %d", fixed)
			}
			return
		}
		if fixed != col {
			t.Fatalf("corruption in %d attributed to %d", col, fixed)
		}
		if !s.Equal(orig) {
			t.Fatal("repair did not restore the stripe")
		}
	})
}
