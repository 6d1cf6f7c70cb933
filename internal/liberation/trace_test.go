package liberation

import (
	"strings"
	"testing"
)

// TestTraceDecode checks the Algorithm 2-4 trace: the zig-zag makes
// exactly p iterations (Algorithm 4 retrieves two elements per step over
// p rows), the traced XOR count equals the executable schedule's, and
// the total stays within the paper's near-optimal envelope — at most the
// 2p(k-1) encoding bound plus one extra XOR per computed syndrome.
func TestTraceDecode(t *testing.T) {
	for _, sh := range [][2]int{{3, 3}, {5, 5}, {5, 7}, {8, 11}, {13, 13}} {
		k, p := sh[0], sh[1]
		c, err := New(k, p)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < k; l++ {
			for r := l + 1; r < k; r++ {
				tr, err := c.TraceDecode(l, r)
				if err != nil {
					t.Fatalf("k=%d p=%d (%d,%d): %v", k, p, l, r, err)
				}
				// L and R record the orientation Algorithm 2 actually
				// chose; Swapped says whether it flipped the canonical pair.
				lo, hi := tr.L, tr.R
				if lo > hi {
					lo, hi = hi, lo
				}
				if tr.K != k || tr.P != p || lo != l || hi != r {
					t.Fatalf("k=%d p=%d (%d,%d): trace header K=%d P=%d L=%d R=%d",
						k, p, l, r, tr.K, tr.P, tr.L, tr.R)
				}
				if tr.Swapped != (tr.L != l) {
					t.Errorf("k=%d p=%d (%d,%d): Swapped=%v inconsistent with L=%d",
						k, p, l, r, tr.Swapped, tr.L)
				}
				if tr.StepCount() != p {
					t.Errorf("k=%d p=%d (%d,%d): %d zig-zag steps, want p=%d",
						k, p, l, r, tr.StepCount(), p)
				}
				want, err := c.DecodeXORs([]int{l, r})
				if err != nil {
					t.Fatal(err)
				}
				if tr.XORs != want {
					t.Errorf("k=%d p=%d (%d,%d): trace XORs %d != DecodeXORs %d",
						k, p, l, r, tr.XORs, want)
				}
				if bound := 2*p*(k-1) + tr.SyndromeSum(); tr.XORs > bound {
					t.Errorf("k=%d p=%d (%d,%d): %d XORs exceeds near-optimal bound %d",
						k, p, l, r, tr.XORs, bound)
				}
				if tr.RowSyndromes == 0 || tr.DiagSyndromes == 0 {
					t.Errorf("k=%d p=%d (%d,%d): syndrome sets not recorded", k, p, l, r)
				}
				// Algorithm 3 reuses exactly the common expressions whose
				// pair of columns survives.
				wantReuse := 0
				for j := 1; j < k; j++ {
					if l != j-1 && l != j && r != j-1 && r != j {
						wantReuse++
					}
				}
				if tr.CommonReuse != wantReuse {
					t.Errorf("k=%d p=%d (%d,%d): CommonReuse=%d, want %d",
						k, p, l, r, tr.CommonReuse, wantReuse)
				}
			}
		}
	}
}

// TestTraceDecodeP5Case pins the paper's worked p=5 example: decoding
// data pair (1,3) costs 41 XORs, 1.025x the 40-XOR encoding bound, and
// the trace shows at least one common-expression reuse.
func TestTraceDecodeP5Case(t *testing.T) {
	c, err := New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := c.TraceDecode(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.XORs != 41 {
		t.Errorf("p=5 (1,3): %d XORs, want 41", tr.XORs)
	}
	if tr.StepCount() != 5 {
		t.Errorf("p=5 (1,3): %d steps, want 5", tr.StepCount())
	}
	// Erasing (1,3) touches every adjacent-column pair of k=5, so no
	// common expression survives to reuse; pair (0,4) leaves two.
	if tr.CommonReuse != 0 {
		t.Errorf("p=5 (1,3): CommonReuse=%d, want 0", tr.CommonReuse)
	}
	if tr2, err := c.TraceDecode(0, 4); err != nil {
		t.Fatal(err)
	} else if tr2.CommonReuse != 2 {
		t.Errorf("p=5 (0,4): CommonReuse=%d, want 2", tr2.CommonReuse)
	}
	if s := tr.String(); s == "" || s == "decode-trace(nil)" {
		t.Errorf("trace String() = %q", s)
	}

	if _, err := c.TraceDecode(1, 1); err == nil {
		t.Error("TraceDecode(1,1) should reject a degenerate pair")
	}
	if _, err := c.TraceDecode(-1, 2); err == nil {
		t.Error("TraceDecode(-1,2) should reject out-of-range columns")
	}
}

func TestDecodeTraceBuilding(t *testing.T) {
	tr := &DecodeTrace{Code: "liberation(k=5,p=5)", K: 5, P: 5, L: 1, R: 3,
		StartRow: 2, RowSyndromes: 1, DiagSyndromes: 2}
	tr.ReuseHit()
	tr.ReuseHit()
	tr.AddStep(0, 2, "row-resolve")
	tr.AddStep(1, 4, "row-resolve", "pairA-resolve(l)")
	if tr.StepCount() != 2 {
		t.Errorf("StepCount = %d, want 2", tr.StepCount())
	}
	if tr.SyndromeSum() != 3 {
		t.Errorf("SyndromeSum = %d, want 3", tr.SyndromeSum())
	}
	if tr.CommonReuse != 2 {
		t.Errorf("CommonReuse = %d, want 2", tr.CommonReuse)
	}
	out := tr.String()
	for _, want := range []string{"liberation(k=5,p=5)", "erased=(1,3)",
		"1 row + 2 anti-diagonal", "step  0", "pairA-resolve(l)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestDecodeTraceNilSafety(t *testing.T) {
	var tr *DecodeTrace
	tr.AddStep(0, 0, "x")
	tr.ReuseHit()
	if tr.StepCount() != 0 || tr.SyndromeSum() != 0 {
		t.Error("nil trace must report zero")
	}
	if tr.String() != "decode-trace(nil)" {
		t.Errorf("nil rendering = %q", tr.String())
	}
}
