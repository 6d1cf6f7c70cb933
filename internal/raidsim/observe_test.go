package raidsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/liberation"
	"repro/internal/obs"
)

// newTestRegistry attaches a fresh registry to the array.
func newTestRegistry(a *Array) *obs.Registry {
	reg := obs.NewRegistry()
	a.Instrument(reg)
	return reg
}

// TestMetricsMatchStats drives the full operation mix and checks that
// the registry's counters agree exactly with the legacy Stats struct,
// that the array spans carry the coding work, and that the rebuild
// progress gauge completes at 1.
func TestMetricsMatchStats(t *testing.T) {
	code, err := liberation.New(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(code, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	newTestRegistry(a)

	rng := rand.New(rand.NewSource(3))
	data := make([]byte, a.Capacity())
	rng.Read(data)
	if err := a.Write(0, data); err != nil {
		t.Fatal(err)
	}
	patch := make([]byte, 50)
	rng.Read(patch)
	if err := a.Write(21, patch); err != nil { // small writes
		t.Fatal(err)
	}
	copy(data[21:], patch)

	if err := a.FailDisk(2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := a.Read(0, got); err != nil { // degraded reads
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read mismatch")
	}
	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}

	if err := a.CorruptDisk(1, 5, 3, 0xa5); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Scrub(); err != nil {
		t.Fatal(err)
	}

	snap := a.Metrics()
	check := func(name string, want uint64) {
		t.Helper()
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d (Stats agreement)", name, got, want)
		}
	}
	check("raid.stripe_encodes", a.Stats.StripeEncodes)
	check("raid.small_writes", a.Stats.SmallWrites)
	check("raid.parity_elem_writes", a.Stats.ParityElemWrites)
	check("raid.degraded_reads", a.Stats.DegradedReads)
	check("raid.stripes_rebuilt", a.Stats.StripesRebuilt)
	check("raid.scrub.repairs", a.Stats.ScrubRepairs)
	if a.Stats.DegradedReads == 0 || a.Stats.SmallWrites == 0 || a.Stats.ScrubRepairs == 0 {
		t.Fatalf("workload did not exercise all paths: %+v", a.Stats)
	}

	// Per-disk scrub repair attribution: exactly the corrupted disk.
	repairs := uint64(0)
	for d := 0; d < a.NumDisks(); d++ {
		repairs += snap.Counters[fmt.Sprintf(`raid.scrub.repairs{disk="%d"}`, d)]
	}
	if repairs != a.Stats.ScrubRepairs {
		t.Errorf("per-disk scrub repairs sum %d, want %d", repairs, a.Stats.ScrubRepairs)
	}
	if snap.Counters[`raid.scrub.repairs{disk="1"}`] == 0 {
		t.Error("repair not attributed to corrupted disk 1")
	}

	if g := snap.Gauges["raid.rebuild.progress"]; g != 1 {
		t.Errorf("rebuild progress gauge = %v, want 1", g)
	}

	// Spans exist and the coding layers nest under the same registry.
	for _, name := range []string{"raid.read", "raid.write", "raid.rebuild", "raid.scrub"} {
		st, ok := snap.Spans[name]
		if !ok || st.Calls == 0 {
			t.Errorf("span %s missing from snapshot", name)
			continue
		}
		if name != "raid.read" && st.XORs == 0 {
			t.Errorf("span %s recorded no XOR work", name)
		}
	}
	for _, name := range []string{"liberation.encode", "liberation.decode", "liberation.update", "liberation.correct"} {
		if st, ok := snap.Spans[name]; !ok || st.Calls == 0 {
			t.Errorf("nested span %s missing — Instrument should reach the code", name)
		}
	}
}

// TestMetricsConcurrentReaders runs array traffic while other goroutines
// snapshot and render the registry — the -race acceptance test for this
// package. The array itself is single-writer (as documented); only the
// registry is shared.
func TestMetricsConcurrentReaders(t *testing.T) {
	code, err := liberation.New(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(code, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(a)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink bytes.Buffer
			for {
				select {
				case <-done:
					return
				default:
					snap := reg.Snapshot()
					sink.Reset()
					snap.WriteText(&sink)
				}
			}
		}()
	}

	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, a.Capacity())
	rng.Read(buf)
	for i := 0; i < 30; i++ {
		if err := a.Write(0, buf); err != nil {
			t.Fatal(err)
		}
		if err := a.Write(13, buf[:40]); err != nil {
			t.Fatal(err)
		}
		if err := a.Read(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Rebuild(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	if st := a.Metrics().Spans["raid.write"]; st.Calls != 60 {
		t.Errorf("raid.write calls = %d, want 60", st.Calls)
	}
}

// TestUninstrumentedArrayIsUnaffected checks the nil-registry path: all
// operations work, Metrics() returns an empty snapshot, and no metric
// machinery is reachable.
func TestUninstrumentedArrayIsUnaffected(t *testing.T) {
	code, err := liberation.New(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(code, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Registry() != nil {
		t.Fatal("fresh array should have no registry")
	}
	buf := make([]byte, a.Capacity())
	if err := a.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := a.Read(0, buf); err != nil {
		t.Fatal(err)
	}
	snap := a.Metrics()
	if len(snap.Spans) != 0 || len(snap.Counters) != 0 {
		t.Errorf("uninstrumented snapshot not empty: %+v", snap)
	}
}

// TestInstrumentLeavesSharedCodeAlone shares one code value between two
// arrays and instruments only the first: spans must come from that
// array's operations alone — not from the other array, not from a
// direct caller of the code — and detaching the other array must not
// detach the first.
func TestInstrumentLeavesSharedCodeAlone(t *testing.T) {
	code, err := liberation.New(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(code, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(code, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(a)
	buf := make([]byte, a.Capacity())

	if err := b.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := code.Encode(core.NewStripeFor(code, 16), nil); err != nil {
		t.Fatal(err)
	}
	if spans := reg.Snapshot().Spans; len(spans) != 0 {
		t.Fatalf("uninstrumented users of the shared code recorded spans: %v", spans)
	}

	b.Instrument(nil)
	if err := a.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Snapshot().Spans["liberation.encode"].Calls, a.Stats.StripeEncodes; got != want || want == 0 {
		t.Errorf("liberation.encode calls = %d, want the instrumented array's %d stripe encodes", got, want)
	}
}
