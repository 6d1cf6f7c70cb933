package codes_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/obs"
)

// capabilities is the capability set a layer can discover on a code.
type capabilities struct {
	updater, corrector, primed bool
	p                          int
}

func capsOf(code core.Code) capabilities {
	var c capabilities
	_, c.updater = code.(core.Updater)
	_, c.corrector = code.(core.ColumnCorrector)
	c.p, c.primed = codes.Prime(code)
	return c
}

// TestObserveMatrix checks the span decorator over every registered code
// at every advertised shape: the decorated code keeps the bare code's
// capability set, a nil registry returns the bare value, every span is
// named <prefix>.<op>, and each span's counters match the core.Ops the
// call handed back and the documented bytes/units formulas.
func TestObserveMatrix(t *testing.T) {
	for _, info := range codes.All() {
		for _, sh := range info.TestShapes {
			t.Run(fmt.Sprintf("%s/k=%d,p=%d", info.Name, sh.K, sh.P), func(t *testing.T) {
				bare, err := codes.New(info.Name, sh.K, sh.P)
				if err != nil {
					t.Fatal(err)
				}
				if got := codes.Observe(bare, nil); got != bare {
					t.Fatalf("Observe(code, nil) = %T, want the bare code", got)
				}
				if got, err := codes.NewObserved(info.Name, sh.K, sh.P, nil); err != nil ||
					fmt.Sprintf("%T", got) != fmt.Sprintf("%T", bare) {
					t.Fatalf("NewObserved(nil registry) = %T, %v; want bare %T", got, err, bare)
				}

				reg := obs.NewRegistry()
				code := codes.Observe(bare, reg)
				if code == bare {
					t.Fatal("Observe returned the bare code: no wrapper for this capability set")
				}
				if got, want := capsOf(code), capsOf(bare); got != want {
					t.Fatalf("capabilities %+v, bare code has %+v", got, want)
				}
				checkSpans(t, bare, code, reg)
			})
		}
	}
}

// checkSpans drives every operation the code supports through the
// decorated code and checks the recorded spans.
func checkSpans(t *testing.T, bare, code core.Code, reg *obs.Registry) {
	t.Helper()
	prefix, _, _ := strings.Cut(bare.Name(), "(")
	k, m, w := code.K(), code.M(), code.W()
	const elemSize = 16
	s := core.NewStripeFor(code, elemSize)
	s.FillRandom(rand.New(rand.NewSource(int64(k*100 + w))))

	type want struct {
		ops          core.Ops
		bytes, units uint64
	}
	wants := map[string]want{}
	record := func(op string, ops core.Ops, bytes, units int) {
		wants[prefix+"."+op] = want{ops, uint64(bytes), uint64(units)}
	}

	var ops core.Ops
	if err := code.Encode(s, &ops); err != nil {
		t.Fatal(err)
	}
	record("encode", ops, s.DataSize(), m*w)
	golden := s.Clone()

	erased := []int{0, k}
	for _, col := range erased {
		s.ZeroStrip(col)
	}
	ops = core.Ops{}
	if err := code.Decode(s, erased, &ops); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(golden) {
		t.Fatalf("decode %v through the decorator did not restore the stripe", erased)
	}
	record("decode", ops, s.DataSize(), len(erased)*w)

	if u, ok := code.(core.Updater); ok {
		old := append([]byte(nil), s.Elem(0, 0)...)
		s.Elem(0, 0)[0] ^= 0xff
		ops = core.Ops{}
		touched, err := u.Update(s, 0, 0, old, &ops)
		if err != nil || touched == 0 {
			t.Fatalf("update: touched %d, %v", touched, err)
		}
		record("update", ops, elemSize, touched)
	}
	if cc, ok := code.(core.ColumnCorrector); ok {
		s.Elem(1, 0)[0] ^= 0x5a
		ops = core.Ops{}
		col, err := cc.CorrectColumn(s, &ops)
		if err != nil || col != 1 {
			t.Fatalf("correct: column %d, %v; want 1", col, err)
		}
		record("correct", ops, s.DataSize(), 0)
	}

	spans := reg.Snapshot().Spans
	if len(spans) != len(wants) {
		t.Errorf("recorded spans %v, want exactly %d", spanNames(spans), len(wants))
	}
	for name, w := range wants {
		st, ok := spans[name]
		if !ok {
			t.Errorf("no %s span; recorded %v", name, spanNames(spans))
			continue
		}
		if st.Calls != 1 || st.Errors != 0 || st.Latency.Count != 1 {
			t.Errorf("%s: calls=%d errors=%d latency samples=%d, want 1/0/1",
				name, st.Calls, st.Errors, st.Latency.Count)
		}
		if st.XORs != w.ops.XORs || st.Copies != w.ops.Copies || st.Zeros != w.ops.Zeros {
			t.Errorf("%s: span ops xors=%d copies=%d zeros=%d, handed back %+v",
				name, st.XORs, st.Copies, st.Zeros, w.ops)
		}
		if st.Bytes != w.bytes || st.Units != w.units {
			t.Errorf("%s: bytes=%d units=%d, want %d/%d", name, st.Bytes, st.Units, w.bytes, w.units)
		}
	}
}

func spanNames(spans map[string]obs.SpanStats) []string {
	var names []string
	for name := range spans {
		names = append(names, name)
	}
	return names
}
