package liberation_test

import (
	"math/rand"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/liberation"
	"repro/internal/obs"
)

// randomStripe builds a deterministic k+2-column stripe with random data.
func randomStripe(k, p, elemSize int, seed int64) *core.Stripe {
	s := core.NewStripe(k, p, elemSize)
	rng := rand.New(rand.NewSource(seed))
	for col := 0; col < k; col++ {
		rng.Read(s.Strips[col])
	}
	return s
}

// observed builds a Liberation code and its span-recording decoration.
func observed(t *testing.T, k, p int) (*liberation.Code, core.Code, *obs.Registry) {
	t.Helper()
	c, err := liberation.New(k, p)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	return c, codes.Observe(c, reg), reg
}

// TestInstrumentedEncodeMatchesOps is the acceptance check that the span
// counters in Registry.Snapshot() agree bit-for-bit with the core.Ops
// accounting, and that the derived XORs-per-parity-element is exactly the
// paper's k-1 lower bound (Encode performs 2p(k-1) XORs over 2p parity
// elements).
func TestInstrumentedEncodeMatchesOps(t *testing.T) {
	for _, sh := range [][2]int{{5, 5}, {4, 7}, {10, 11}} {
		k, p := sh[0], sh[1]
		c, code, reg := observed(t, k, p)

		const calls = 7
		var ops core.Ops
		s := randomStripe(k, p, 64, 1)
		for n := 0; n < calls; n++ {
			if err := code.Encode(s, &ops); err != nil {
				t.Fatal(err)
			}
		}

		snap := reg.Snapshot()
		st, ok := snap.Spans["liberation.encode"]
		if !ok {
			t.Fatalf("k=%d p=%d: no liberation.encode span in snapshot", k, p)
		}
		if st.Calls != calls {
			t.Errorf("k=%d p=%d: calls = %d, want %d", k, p, st.Calls, calls)
		}
		if st.XORs != ops.XORs {
			t.Errorf("k=%d p=%d: span XORs %d != ops.XORs %d", k, p, st.XORs, ops.XORs)
		}
		if st.Copies != ops.Copies {
			t.Errorf("k=%d p=%d: span Copies %d != ops.Copies %d", k, p, st.Copies, ops.Copies)
		}
		if want := uint64(calls * c.EncodeXORs()); st.XORs != want {
			t.Errorf("k=%d p=%d: span XORs %d, want %d calls x EncodeXORs", k, p, st.XORs, want)
		}
		if want := float64(k - 1); st.XORsPerUnit != want {
			t.Errorf("k=%d p=%d: XORsPerUnit = %v, want exactly k-1 = %v", k, p, st.XORsPerUnit, want)
		}
		if st.Bytes != uint64(calls*s.DataSize()) {
			t.Errorf("k=%d p=%d: span Bytes = %d, want %d", k, p, st.Bytes, calls*s.DataSize())
		}
		if st.Latency.Count != calls {
			t.Errorf("k=%d p=%d: latency count %d != %d", k, p, st.Latency.Count, calls)
		}
		if st.Latency.P50 <= 0 || st.Latency.P99 < st.Latency.P50 {
			t.Errorf("k=%d p=%d: implausible percentiles p50=%v p99=%v",
				k, p, st.Latency.P50, st.Latency.P99)
		}
		if st.BytesPerSec <= 0 {
			t.Errorf("k=%d p=%d: BytesPerSec = %v, want > 0", k, p, st.BytesPerSec)
		}
	}
}

// TestInstrumentedDecodeMatchesOps checks the decode span against the
// closed-form DecodeXORs count for a spread of erasure patterns, and that
// work done through the bare code never reaches the registry.
func TestInstrumentedDecodeMatchesOps(t *testing.T) {
	k, p := 5, 5
	c, code, reg := observed(t, k, p)

	patterns := [][]int{{1, 3}, {0, 4}, {2, k}, {k, k + 1}, {0}}
	wantXORs := uint64(0)
	var ops core.Ops
	for _, erased := range patterns {
		s := randomStripe(k, p, 32, 42)
		if err := c.Encode(s, nil); err != nil {
			t.Fatal(err)
		}
		golden := s.Clone()
		for _, col := range erased {
			s.ZeroStrip(col)
		}
		if err := code.Decode(s, erased, &ops); err != nil {
			t.Fatalf("decode %v: %v", erased, err)
		}
		if !s.Equal(golden) {
			t.Fatalf("decode %v: stripe mismatch", erased)
		}
		n, err := c.DecodeXORs(erased)
		if err != nil {
			t.Fatal(err)
		}
		wantXORs += uint64(n)
	}

	snap := reg.Snapshot()
	if _, ok := snap.Spans["liberation.encode"]; ok {
		t.Error("encodes through the bare code recorded a span")
	}
	st := snap.Spans["liberation.decode"]
	if st.Calls != uint64(len(patterns)) {
		t.Errorf("decode calls = %d, want %d", st.Calls, len(patterns))
	}
	if st.XORs != ops.XORs {
		t.Errorf("span XORs %d != ops.XORs %d", st.XORs, ops.XORs)
	}
	if st.XORs != wantXORs {
		t.Errorf("span XORs %d != sum of DecodeXORs %d", st.XORs, wantXORs)
	}
	if st.Errors != 0 {
		t.Errorf("unexpected decode errors counter: %d", st.Errors)
	}
}

// TestInstrumentedUpdateAndCorrect exercises the two remaining spans.
func TestInstrumentedUpdateAndCorrect(t *testing.T) {
	k, p := 4, 5
	_, code, reg := observed(t, k, p)
	u, ok := code.(core.Updater)
	if !ok {
		t.Fatal("decorated code lost core.Updater")
	}
	cc, ok := code.(core.ColumnCorrector)
	if !ok {
		t.Fatal("decorated code lost core.ColumnCorrector")
	}

	s := randomStripe(k, p, 16, 7)
	var ops core.Ops
	if err := code.Encode(s, &ops); err != nil {
		t.Fatal(err)
	}

	old := append([]byte(nil), s.Elem(1, 2)...)
	s.Elem(1, 2)[0] ^= 0xff
	touched, err := u.Update(s, 1, 2, old, &ops)
	if err != nil {
		t.Fatal(err)
	}
	if touched == 0 {
		t.Fatal("update should touch parity elements")
	}

	s.Elem(2, 0)[0] ^= 0x55 // silent corruption
	col, err := cc.CorrectColumn(s, &ops)
	if err != nil {
		t.Fatal(err)
	}
	if col != 2 {
		t.Fatalf("corrected column %d, want 2", col)
	}

	snap := reg.Snapshot()
	up := snap.Spans["liberation.update"]
	if up.Calls != 1 || up.Units != uint64(touched) {
		t.Errorf("update span calls=%d units=%d, want 1/%d", up.Calls, up.Units, touched)
	}
	cor := snap.Spans["liberation.correct"]
	if cor.Calls != 1 || cor.XORs == 0 {
		t.Errorf("correct span calls=%d xors=%d, want 1 call with XOR work", cor.Calls, cor.XORs)
	}
}
