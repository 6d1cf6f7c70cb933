package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestSeriesNameRoundTrip(t *testing.T) {
	cases := []struct {
		base   string
		labels []Label
		want   string
	}{
		{"raid.scrub.repairs", []Label{L("disk", "3")}, `raid.scrub.repairs{disk="3"}`},
		{"x", []Label{L("node", "1"), L("code", "liberation")}, `x{code="liberation",node="1"}`},
		{"plain", nil, "plain"},
		{"esc", []Label{L("op", `a"b\c`)}, `esc{op="a\"b\\c"}`},
	}
	for _, c := range cases {
		got := SeriesName(c.base, c.labels)
		if got != c.want {
			t.Errorf("SeriesName(%q, %v) = %q, want %q", c.base, c.labels, got, c.want)
		}
		base, labels := SplitSeries(got)
		if base != c.base {
			t.Errorf("SplitSeries(%q) base = %q, want %q", got, base, c.base)
		}
		if len(labels) != len(c.labels) {
			t.Fatalf("SplitSeries(%q) labels = %v, want %d labels", got, labels, len(c.labels))
		}
		for _, l := range c.labels {
			if !HasLabels(labels, []Label{l}) {
				t.Errorf("SplitSeries(%q) labels %v missing %v", got, labels, l)
			}
		}
	}
}

func TestSeriesSuffix(t *testing.T) {
	if got := SeriesSuffix(`h{node="3"}`, ".count"); got != `h.count{node="3"}` {
		t.Errorf("SeriesSuffix = %q", got)
	}
	if got := SeriesSuffix("h", ".count"); got != "h.count" {
		t.Errorf("SeriesSuffix = %q", got)
	}
}

func TestLabeledCounterIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.CounterWith("m", L("node", "1"))
	b := r.CounterWith("m", L("node", "1"))
	if a != b {
		t.Fatal("same label set interned twice")
	}
	// Key order must not matter.
	x := r.CounterWith("m", L("node", "1"), L("op", "read"))
	y := r.CounterWith("m", L("op", "read"), L("node", "1"))
	if x != y {
		t.Fatal("label order changed identity")
	}
	if c := r.CounterWith("m", L("node", "2")); c == a || c == x {
		t.Fatal("distinct label sets shared a child")
	}
	// No labels degrades to the plain counter.
	if r.CounterWith("m") != r.Counter("m") {
		t.Fatal("empty label set is not the unlabeled counter")
	}
}

// TestLabeledCounterHotPathAllocs is the satellite guarantee: a labeled
// counter increment with an already-interned label set is allocation
// free — the variadic label slice stays on the stack, lookup compares
// in place.
func TestLabeledCounterHotPathAllocs(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("hot", L("node", "3")).Inc() // intern
	allocs := testing.AllocsPerRun(1000, func() {
		r.CounterWith("hot", L("node", "3")).Inc()
	})
	if allocs != 0 {
		t.Errorf("labeled counter hot path allocates %.1f/op, want 0", allocs)
	}
	r.HistogramWith("hoth", LatencyBuckets, L("node", "3")).Observe(1e-4)
	allocs = testing.AllocsPerRun(1000, func() {
		r.HistogramWith("hoth", LatencyBuckets, L("node", "3")).Observe(1e-4)
	})
	if allocs != 0 {
		t.Errorf("labeled histogram hot path allocates %.1f/op, want 0", allocs)
	}
}

func TestLabelCardinalityCap(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < DefaultLabelCap; i++ {
		r.CountWith("capped", 1, Li("node", i))
	}
	if v := r.Counter(LabelsDroppedCounter).Value(); v != 0 {
		t.Fatalf("dropped = %d before overflow", v)
	}
	// Overflow: three observations beyond the cap, two distinct sets.
	r.CountWith("capped", 1, Li("node", 100))
	r.CountWith("capped", 1, Li("node", 101))
	r.CountWith("capped", 1, Li("node", 100))
	if v := r.Counter(LabelsDroppedCounter).Value(); v != 3 {
		t.Fatalf("obs.labels.dropped = %d, want 3", v)
	}
	s := r.Snapshot()
	other := `capped{node="other"}`
	if s.Counters[other] != 3 {
		t.Fatalf("overflow child %s = %d, want 3 (counters: %v)", other, s.Counters[other], s.Counters)
	}
	if _, leaked := s.Counters[`capped{node="100"}`]; leaked {
		t.Fatal("over-cap label set interned its own series")
	}
	// The family aggregate counts everything, collapsed or not.
	if want := uint64(DefaultLabelCap + 3); s.Counters["capped"] != want {
		t.Fatalf("aggregate capped = %d, want %d", s.Counters["capped"], want)
	}
	// Interned children stay live past the cap.
	r.CountWith("capped", 1, Li("node", 2))
	if got := r.CounterWith("capped", Li("node", 2)).Value(); got != 2 {
		t.Fatalf("interned child after overflow = %d, want 2", got)
	}
}

func TestSnapshotLabeledRendering(t *testing.T) {
	r := NewRegistry()
	r.CountWith("raid.scrub.repairs", 2, L("disk", "3"))
	r.CountWith("raid.scrub.repairs", 1, L("disk", "5"))
	r.SetGaugeWith("node.down", 1, L("node", "2"))
	r.ObserveWith("op.seconds", LatencyBuckets, 0.002, L("node", "1"))
	r.ObserveWith("op.seconds", LatencyBuckets, 0.004, L("node", "2"))
	s := r.Snapshot()

	// Children under canonical names.
	if s.Counters[`raid.scrub.repairs{disk="3"}`] != 2 {
		t.Errorf("child missing: %v", s.Counters)
	}
	// Family aggregate under the bare name.
	if s.Counters["raid.scrub.repairs"] != 3 {
		t.Errorf("aggregate = %d, want 3", s.Counters["raid.scrub.repairs"])
	}
	// No pre-label dotted spelling alongside the canonical child.
	if _, ok := s.Counters["raid.scrub.repairs.disk.3"]; ok {
		t.Errorf("flat alias rendered: %v", s.Counters)
	}
	if s.Gauges[`node.down{node="2"}`] != 1 || s.Gauges["node.down"] != 1 {
		t.Errorf("gauge rendering: %v", s.Gauges)
	}
	agg := s.Histograms["op.seconds"]
	if agg.Count != 2 || agg.Sum != 0.006 {
		t.Errorf("histogram aggregate = %+v", agg)
	}
	if s.Histograms[`op.seconds{node="1"}`].Count != 1 {
		t.Errorf("histogram child missing: %v", mapsKeys(s.Histograms))
	}
}

// TestSnapshotUnlabeledNameWins: an unlabeled metric that shares a name
// with a labeled family keeps its own value — the aggregate never
// double-bills an emitter that writes both forms.
func TestSnapshotUnlabeledNameWins(t *testing.T) {
	r := NewRegistry()
	r.Count("both", 10)
	r.CountWith("both", 1, L("node", "0"))
	s := r.Snapshot()
	if s.Counters["both"] != 10 {
		t.Errorf("both = %d, want the unlabeled counter's 10", s.Counters["both"])
	}
	if s.Counters[`both{node="0"}`] != 1 {
		t.Errorf("child lost: %v", s.Counters)
	}
}

func TestWritePrometheusLabels(t *testing.T) {
	r := NewRegistry()
	r.CountWith("nodestore.down.total", 4, L("node", "1"))
	r.CountWith("nodestore.down.total", 2, L("node", "3"))
	r.ObserveWith("store.node.seconds", []float64{0.001, 0.01}, 0.002, L("node", "3"))
	var b strings.Builder
	r.Snapshot().WritePrometheus(&b)
	out := b.String()

	for _, want := range []string{
		"# TYPE nodestore_down_total counter\n",
		"nodestore_down_total 6\n", // aggregate
		`nodestore_down_total{node="1"} 4` + "\n",
		`nodestore_down_total{node="3"} 2` + "\n",
		`store_node_seconds_bucket{node="3",le="0.01"} 1` + "\n",
		`store_node_seconds_sum{node="3"} 0.002` + "\n",
		`store_node_seconds_count{node="3"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "nodestore_down_total_node_1") {
		t.Errorf("exposition renders the dotted flat spelling:\n%s", out)
	}
	// One TYPE line per metric name.
	if n := strings.Count(out, "# TYPE nodestore_down_total counter"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1", n)
	}
	// All samples of a name are contiguous under its TYPE line.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	lastBase, seen := "", map[string]bool{}
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# TYPE ") {
			base := strings.Fields(ln)[2]
			if seen[base] {
				t.Errorf("metric %s split across groups", base)
			}
			seen[base] = true
			lastBase = base
			continue
		}
		name := ln[:strings.IndexAny(ln, "{ ")]
		name = strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if name != lastBase {
			t.Errorf("sample %q under TYPE %s", ln, lastBase)
		}
	}
}

func mapsKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func BenchmarkLabeledCounterHit(b *testing.B) {
	r := NewRegistry()
	r.CounterWith("bench", L("node", "7")).Inc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.CounterWith("bench", L("node", "7")).Inc()
	}
}

var _ = fmt.Sprintf // keep fmt for debug churn
