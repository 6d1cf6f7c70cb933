package liberation

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/xorblk"
)

// correctColumnOracle is the original clone-based CorrectColumn
// implementation, kept verbatim as the test oracle for the streamed
// rewrite: it re-encodes a full shadow copy of the stripe and diffs the
// parities. Slow and allocation-heavy, but independently derived from the
// defining equations via Encode.
func (c *Code) correctColumnOracle(s *core.Stripe, ops *core.Ops) (int, error) {
	if err := s.CheckShape(c.k, 2, c.p); err != nil {
		return 0, err
	}
	p, k := c.p, c.k
	elemSize := s.ElemSize

	expect := s.Clone()
	if err := c.Encode(expect, ops); err != nil {
		return 0, err
	}
	dP := make([][]byte, p)
	dQ := make([][]byte, p)
	backing := make([]byte, 2*p*elemSize)
	zeroP, zeroQ := true, true
	for i := 0; i < p; i++ {
		dP[i], backing = backing[:elemSize:elemSize], backing[elemSize:]
		dQ[i], backing = backing[:elemSize:elemSize], backing[elemSize:]
		ops.Xor(dP[i], s.Elem(k, i), expect.Elem(k, i))
		ops.Xor(dQ[i], s.Elem(k+1, i), expect.Elem(k+1, i))
		zeroP = zeroP && xorblk.IsZero(dP[i])
		zeroQ = zeroQ && xorblk.IsZero(dQ[i])
	}
	switch {
	case zeroP && zeroQ:
		return core.CleanColumn, nil
	case !zeroP && zeroQ:
		ops.Copy(s.Strips[k], expect.Strips[k])
		return k, nil
	case zeroP && !zeroQ:
		ops.Copy(s.Strips[k+1], expect.Strips[k+1])
		return k + 1, nil
	}

	pred := make([]byte, p*elemSize)
	diff := make([]byte, elemSize)
	candidate := core.CleanColumn
	for col := 0; col < k; col++ {
		for i := range pred {
			pred[i] = 0
		}
		predRow := func(q int) []byte { return pred[q*elemSize : (q+1)*elemSize] }
		for i := 0; i < p; i++ {
			if xorblk.IsZero(dP[i]) {
				continue
			}
			ops.XorInto(predRow(c.mod(i-col)), dP[i])
			if col >= 1 && i == c.extraRow(col) {
				ops.XorInto(predRow(c.extraConstraint(col)), dP[i])
			}
		}
		match := true
		for q := 0; q < p && match; q++ {
			xorblk.Xor(diff, predRow(q), dQ[q])
			match = xorblk.IsZero(diff)
		}
		if match {
			if candidate != core.CleanColumn {
				return 0, ErrAmbiguousCorruption
			}
			candidate = col
		}
	}
	if candidate == core.CleanColumn {
		return 0, ErrAmbiguousCorruption
	}
	for i := 0; i < p; i++ {
		ops.XorInto(s.Elem(candidate, i), dP[i])
	}
	return candidate, nil
}

// liberationShapes mirrors the liberation entry of codes.TestShapes with
// the auto-prime entry resolved ({4, 0} -> p = 5); the codes package
// cannot be imported here without a cycle, and TestShapesMirrorsRegistry
// in the codes package keeps this copy honest.
func liberationShapes(t *testing.T) [][2]int {
	t.Helper()
	return [][2]int{{3, 5}, {5, 5}, {6, 7}, {8, 11}, {4, 5}}
}

// TestCorrectColumnMatchesOracle drives the streamed CorrectColumn and
// the clone-based oracle through the clean case and every single-column
// corruption (every column, single- and multi-element error patterns) on
// every registry test shape, and requires identical verdicts and
// identical repaired stripes.
func TestCorrectColumnMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, kp := range liberationShapes(t) {
		k, p := kp[0], kp[1]
		c, err := New(k, p)
		if err != nil {
			t.Fatal(err)
		}
		elem := 16
		base := core.NewStripe(k, p, elem)
		base.FillRandom(rng)
		if err := c.Encode(base, nil); err != nil {
			t.Fatal(err)
		}

		check := func(name string, corrupt func(*core.Stripe)) {
			t.Helper()
			a := base.Clone()
			b := base.Clone()
			corrupt(a)
			corrupt(b)
			colA, errA := c.CorrectColumn(a, nil)
			colB, errB := c.correctColumnOracle(b, nil)
			if (errA == nil) != (errB == nil) || colA != colB {
				t.Fatalf("k=%d p=%d %s: streamed (col=%d err=%v) vs oracle (col=%d err=%v)",
					k, p, name, colA, errA, colB, errB)
			}
			if errA == nil && !a.Equal(b) {
				t.Fatalf("k=%d p=%d %s: repaired stripes diverge", k, p, name)
			}
			if errA == nil && colA != core.CleanColumn && !a.Equal(base) {
				t.Fatalf("k=%d p=%d %s: repair did not restore the stripe", k, p, name)
			}
		}

		check("clean", func(*core.Stripe) {})
		for col := 0; col < k+2; col++ {
			col := col
			check("single-elem", func(s *core.Stripe) {
				s.Elem(col, rng.Intn(p))[rng.Intn(elem)] ^= byte(1 + rng.Intn(255))
			})
			check("multi-elem", func(s *core.Stripe) {
				for n := 0; n < 3; n++ {
					s.Elem(col, rng.Intn(p))[rng.Intn(elem)] ^= byte(1 + rng.Intn(255))
				}
			})
			check("whole-strip", func(s *core.Stripe) {
				rng.Read(s.Strips[col])
			})
		}
		// Corruption across two columns must be rejected by both.
		if k >= 2 {
			check("two-column", func(s *core.Stripe) {
				s.Elem(0, 0)[0] ^= 0x01
				s.Elem(1, 1)[0] ^= 0x80
			})
		}
	}
}

// TestCorrectColumnRandomizedAgainstOracle is the property test: random
// shapes, random element sizes (including non-word sizes), random
// corruption (possibly none, possibly spanning columns), streamed and
// oracle must agree exactly.
func TestCorrectColumnRandomizedAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	primes := []int{5, 7, 11, 13}
	for trial := 0; trial < 300; trial++ {
		p := primes[rng.Intn(len(primes))]
		k := 1 + rng.Intn(p)
		elem := []int{1, 7, 16, 31}[rng.Intn(4)]
		c, err := New(k, p)
		if err != nil {
			t.Fatal(err)
		}
		s := core.NewStripe(k, p, elem)
		s.FillRandom(rng)
		if err := c.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		// 0, 1 or 2 corrupted columns with 1..3 flipped elements each.
		ncols := rng.Intn(3)
		cols := rng.Perm(k + 2)[:ncols]
		for _, col := range cols {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				s.Elem(col, rng.Intn(p))[rng.Intn(elem)] ^= byte(1 + rng.Intn(255))
			}
		}
		a, b := s.Clone(), s.Clone()
		colA, errA := c.CorrectColumn(a, nil)
		colB, errB := c.correctColumnOracle(b, nil)
		if (errA == nil) != (errB == nil) || colA != colB {
			t.Fatalf("trial %d (k=%d p=%d elem=%d cols=%v): streamed (col=%d err=%v) vs oracle (col=%d err=%v)",
				trial, k, p, elem, cols, colA, errA, colB, errB)
		}
		if errA == nil && !a.Equal(b) {
			t.Fatalf("trial %d (k=%d p=%d elem=%d cols=%v): repaired stripes diverge",
				trial, k, p, elem, cols)
		}
	}
}

// TestCorrectColumnZeroAllocs pins the steady-state allocation contract:
// after the pooled scratch exists, neither the clean-verify scrub pass
// nor a locate-and-repair cycle may allocate.
func TestCorrectColumnZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is meaningless under -race: the instrumentation allocates and sync.Pool sheds items")
	}
	c, err := New(8, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStripe(8, 11, 1024)
	s.FillRandom(rand.New(rand.NewSource(79)))
	if err := c.Encode(s, nil); err != nil {
		t.Fatal(err)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		if col, err := c.CorrectColumn(s, nil); err != nil || col != core.CleanColumn {
			t.Fatalf("clean verify: col=%d err=%v", col, err)
		}
	}); allocs != 0 {
		t.Errorf("clean verify allocates %.1f/op, want 0", allocs)
	}

	if allocs := testing.AllocsPerRun(100, func() {
		s.Elem(1, 0)[0] ^= 0xff
		if col, err := c.CorrectColumn(s, nil); err != nil || col != 1 {
			t.Fatalf("repair: col=%d err=%v", col, err)
		}
	}); allocs != 0 {
		t.Errorf("locate+repair allocates %.1f/op, want 0", allocs)
	}
}

// TestCorrectColumnXORCount pins the re-derived cost of the streamed
// correction at the gate shape (k=8, p=11): 183 syndrome XORs for a clean
// verify — p·k for dP plus p·k plus the 7 in-array extra bits for dQ —
// and 193 for the gate's single-element repair (9 locate + 1 repair on
// top of the syndromes). The bench gate pins the same number end to end;
// this test keeps the derivation readable next to the implementation.
func TestCorrectColumnXORCount(t *testing.T) {
	c, err := New(8, 11)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewStripe(8, 11, 64)
	s.FillRandom(rand.New(rand.NewSource(80)))
	if err := c.Encode(s, nil); err != nil {
		t.Fatal(err)
	}

	var ops core.Ops
	if col, err := c.CorrectColumn(s, &ops); err != nil || col != core.CleanColumn {
		t.Fatalf("clean: col=%d err=%v", col, err)
	}
	if want := uint64(183); ops.XORs != want {
		t.Errorf("clean verify XORs = %d, want %d", ops.XORs, want)
	}

	ops.Reset()
	s.Elem(1, 0)[0] ^= 0xff
	if col, err := c.CorrectColumn(s, &ops); err != nil || col != 1 {
		t.Fatalf("repair: col=%d err=%v", col, err)
	}
	if want := uint64(193); ops.XORs != want {
		t.Errorf("locate+repair XORs = %d, want %d", ops.XORs, want)
	}
}
