package monitor

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// trans summarizes a transition list as "rule:to" strings for compact
// assertions.
func trans(ts []Transition) []string {
	out := make([]string, len(ts))
	for i, tr := range ts {
		out[i] = tr.Rule + ":" + tr.To
	}
	return out
}

func wantTrans(t *testing.T, got []Transition, want ...string) {
	t.Helper()
	g := strings.Join(trans(got), " ")
	w := strings.Join(want, " ")
	if g != w {
		t.Errorf("transitions = [%s], want [%s]", g, w)
	}
}

// TestRuleLifecycle drives one rate rule through the full
// ok → pending → firing → resolved ladder with a fake clock.
func TestRuleLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	ts := NewTSStore(64)
	c := newClock()
	flight := obs.NewFlightRecorder(64)
	eng, err := NewEngine([]Rule{{
		Name: "retry-burn", Metric: "shard.retry.total",
		Kind: RuleRate, Op: ">", Value: 0.1,
		Window: Duration(4 * time.Second), For: Duration(2 * time.Second),
		Severity: SeverityWarning,
	}}, obs.NewTracer(flight), reg)
	if err != nil {
		t.Fatal(err)
	}

	tick := func() []Transition {
		sample(ts, reg, c)
		out := eng.Eval(ts, c.Now())
		c.Advance(time.Second)
		return out
	}

	// Quiet rounds: nothing moves.
	wantTrans(t, tick())
	wantTrans(t, tick())

	// A retry burst: rate over 4s jumps above 0.1 → pending.
	reg.Count("shard.retry.total", 4)
	wantTrans(t, tick(), "retry-burn:pending")
	if a := eng.Alerts()[0]; a.State != StatePending || a.Trace == "" {
		t.Fatalf("alert after pending = %+v, want pending with a trace", a)
	}

	// Condition still true but For not yet elapsed.
	wantTrans(t, tick())

	// 2s after pending: fires.
	got := tick()
	wantTrans(t, got, "retry-burn:firing")
	if got[0].Trace == "" || got[0].Trace != eng.Alerts()[0].Trace {
		t.Errorf("firing transition trace %q != alert trace %q", got[0].Trace, eng.Alerts()[0].Trace)
	}
	if v := reg.Gauge("monitor.alerts.firing").Value(); v != 1 {
		t.Errorf("monitor.alerts.firing = %g, want 1", v)
	}

	// The burst ages out of the 4s window → resolved.
	var resolved []Transition
	for i := 0; i < 6 && len(resolved) == 0; i++ {
		resolved = tick()
	}
	wantTrans(t, resolved, "retry-burn:resolved")
	a := eng.Alerts()[0]
	if a.State != StateOK || a.ResolvedAt.IsZero() {
		t.Fatalf("alert after resolve = %+v, want ok with ResolvedAt", a)
	}
	if v := reg.Gauge("monitor.alerts.firing").Value(); v != 0 {
		t.Errorf("monitor.alerts.firing = %g, want 0", v)
	}

	// The whole episode is one trace in the flight recorder: pending,
	// firing, resolved, and the root monitor.alert span.
	events := flight.Tail(0, 0)
	byName := map[string]string{}
	for _, ev := range events {
		byName[ev.Name] = ev.Trace
	}
	for _, name := range []string{"monitor.alert.pending", "monitor.alert.firing",
		"monitor.alert.resolved", "monitor.alert"} {
		if byName[name] == "" {
			t.Fatalf("flight recorder missing %s (have %v)", name, byName)
		}
		if byName[name] != byName["monitor.alert"] {
			t.Errorf("%s trace %s not correlated with episode root %s",
				name, byName[name], byName["monitor.alert"])
		}
	}
	if tc := reg.Counter("monitor.transitions.total").Value(); tc != 3 {
		t.Errorf("monitor.transitions.total = %d, want 3", tc)
	}
}

// TestPendingCancel: a condition that clears before For elapses goes
// back to ok (not resolved) and the episode trace ends.
func TestPendingCancel(t *testing.T) {
	reg := obs.NewRegistry()
	ts := NewTSStore(64)
	c := newClock()
	eng, err := NewEngine([]Rule{{
		Name: "q", Metric: "shard.quarantine.total",
		Kind: RuleThreshold, Op: ">", Value: 0,
		Window: Duration(2 * time.Second), For: Duration(10 * time.Second),
	}}, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	tick := func() []Transition {
		sample(ts, reg, c)
		out := eng.Eval(ts, c.Now())
		c.Advance(time.Second)
		return out
	}
	tick()
	reg.Count("shard.quarantine.total", 1)
	wantTrans(t, tick(), "q:pending")
	// The quarantine ages out of the 2s window long before For (10s).
	var cleared []Transition
	for i := 0; i < 4 && len(cleared) == 0; i++ {
		cleared = tick()
	}
	wantTrans(t, cleared, "q:ok")
	if a := eng.Alerts()[0]; a.State != StateOK || !a.FiredAt.IsZero() {
		t.Errorf("alert = %+v, want ok that never fired", a)
	}
}

// TestForZeroFiresThroughPending: For == 0 emits pending and firing in
// the same round — the ladder is never skipped.
func TestForZeroFiresThroughPending(t *testing.T) {
	reg := obs.NewRegistry()
	ts := NewTSStore(8)
	c := newClock()
	eng, _ := NewEngine([]Rule{{
		Name: "g", Metric: "depth", Kind: RuleThreshold, Op: ">=", Value: 5,
	}}, nil, reg)
	reg.SetGauge("depth", 7)
	sample(ts, reg, c)
	wantTrans(t, eng.Eval(ts, c.Now()), "g:pending", "g:firing")
}

// TestThresholdGaugeAgg: gauge threshold rules honor the agg selector.
func TestThresholdGaugeAgg(t *testing.T) {
	reg := obs.NewRegistry()
	ts := NewTSStore(8)
	c := newClock()
	for _, v := range []float64{10, 2} {
		reg.SetGauge("depth", v)
		sample(ts, reg, c)
		c.Advance(time.Second)
	}
	now := c.Now()
	// last = 2 (below), max = 10 (above).
	last, _ := evalValue(ts, Rule{Metric: "depth", Kind: RuleThreshold}, nil, now)
	max, _ := evalValue(ts, Rule{Metric: "depth", Kind: RuleThreshold,
		Agg: "max", Window: Duration(time.Minute)}, nil, now)
	if last != 2 || max != 10 {
		t.Errorf("last=%g max=%g, want 2 and 10", last, max)
	}
}

// TestMissingMetricStaysOK: a rule over a series that never appears
// evaluates false forever.
func TestMissingMetricStaysOK(t *testing.T) {
	reg := obs.NewRegistry()
	ts := NewTSStore(8)
	c := newClock()
	eng, _ := NewEngine([]Rule{{Name: "ghost", Metric: "no.such.metric", Op: "<", Value: 100}}, nil, reg)
	for i := 0; i < 3; i++ {
		sample(ts, reg, c)
		if got := eng.Eval(ts, c.Now()); len(got) != 0 {
			t.Fatalf("round %d: transitions %v for a missing metric", i, trans(got))
		}
		c.Advance(time.Second)
	}
}

// TestRuleValidation rejects malformed rules at engine construction.
func TestRuleValidation(t *testing.T) {
	bad := []Rule{
		{},          // no name
		{Name: "x"}, // no metric
		{Name: "x", Metric: "m", Kind: "bogus"},
		{Name: "x", Metric: "m", Kind: RuleRate}, // rate without window
		{Name: "x", Metric: "m", Op: "~"},
		{Name: "x", Metric: "m", Agg: "median"},
		{Name: "x", Metric: "m", Severity: "fatal"},
	}
	for i, r := range bad {
		if _, err := NewEngine([]Rule{r}, nil, nil); err == nil {
			t.Errorf("bad rule %d accepted: %+v", i, r)
		}
	}
	if _, err := NewEngine([]Rule{
		{Name: "dup", Metric: "m"}, {Name: "dup", Metric: "m2"},
	}, nil, nil); err == nil {
		t.Error("duplicate rule names accepted")
	}
	if _, err := NewEngine(DefaultRules(), nil, nil); err != nil {
		t.Errorf("DefaultRules rejected: %v", err)
	}
}

// TestParseRules covers ParseDoc's rules half: both accepted document
// shapes, the duration forms, and the rejection of an invalid rule.
func TestParseRules(t *testing.T) {
	doc := `{"rules": [
	  {"name": "a", "metric": "m.total", "kind": "rate", "op": ">",
	   "value": 0.5, "window": "30s", "for": "10s", "severity": "critical"}
	]}`
	rules, slos, err := ParseDoc(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || rules[0].Window != Duration(30*time.Second) ||
		rules[0].For != Duration(10*time.Second) {
		t.Fatalf("parsed %+v", rules)
	}
	if len(slos) != 0 {
		t.Fatalf("rules-only document parsed %d SLOs", len(slos))
	}
	bare := `[{"name": "b", "metric": "m", "value": 1, "window": 5000000000}]`
	rules, _, err = ParseDoc(strings.NewReader(bare))
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Window != Duration(5*time.Second) {
		t.Errorf("numeric window = %v, want 5s", time.Duration(rules[0].Window))
	}
	if _, _, err := ParseDoc(strings.NewReader(`[{"name":"", "metric":"m"}]`)); err == nil {
		t.Error("invalid rule in document accepted")
	}
	if _, _, err := ParseDoc(strings.NewReader(`{"rules": [{"window": "eternal"}]}`)); err == nil {
		t.Error("bad duration accepted")
	}
}

// TestParseDoc: one file carries both halves of the declarative
// alerting surface — threshold/rate rules and SLOs — and the parsed
// SLOs survive the round trip into CompileSLOs.
func TestParseDoc(t *testing.T) {
	doc := `{
	  "rules": [{"name": "a", "metric": "m.total", "kind": "threshold",
	    "op": ">", "value": 0, "window": "30s", "severity": "warning"}],
	  "slos": [{"name": "node-latency", "metric": "store.node.seconds",
	    "threshold": 0.05, "objective": 0.99, "by": "node",
	    "fast_window": "8s", "fast_short": "2s"}]
	}`
	rules, slos, err := ParseDoc(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || len(slos) != 1 {
		t.Fatalf("parsed %d rules, %d slos; want 1 and 1", len(rules), len(slos))
	}
	if slos[0].By != "node" || slos[0].FastWindow != Duration(8*time.Second) {
		t.Fatalf("parsed SLO %+v", slos[0])
	}
	compiled, bases, err := CompileSLOs(slos)
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled) != 2 {
		t.Fatalf("compiled %d rules from 1 SLO, want a fast/slow burn pair", len(compiled))
	}
	found := false
	for _, b := range bases {
		if b == "store.node.seconds" {
			found = true
		}
	}
	if !found {
		t.Errorf("TrackBuckets bases %v missing the SLO's histogram", bases)
	}
	// An SLO error surfaces at compile time, not parse time.
	bad := `{"slos": [{"name": "x", "metric": "m", "objective": 2}]}`
	if _, slos, err = ParseDoc(strings.NewReader(bad)); err != nil {
		t.Fatalf("parse rejected what compile should: %v", err)
	}
	if _, _, err := CompileSLOs(slos); err == nil {
		t.Error("objective 2 compiled")
	}
}

// TestNodeDownAlert: the shipped node-down default rule fires critical
// as soon as the nodestore reports a node out of the membership, and
// resolves when the node comes back.
func TestNodeDownAlert(t *testing.T) {
	reg := obs.NewRegistry()
	ts := NewTSStore(64)
	c := newClock()
	var rules []Rule
	for _, r := range DefaultRules() {
		if r.Name == "node-down" {
			rules = append(rules, r)
		}
	}
	if len(rules) != 1 {
		t.Fatalf("DefaultRules is missing the node-down rule")
	}
	if rules[0].Severity != SeverityCritical {
		t.Fatalf("node-down severity = %q, want critical", rules[0].Severity)
	}
	eng, err := NewEngine(rules, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	tick := func() []Transition {
		sample(ts, reg, c)
		out := eng.Eval(ts, c.Now())
		c.Advance(time.Second)
		return out
	}

	wantTrans(t, tick()) // all nodes up: quiet

	reg.SetGauge("nodestore.nodes_down", 2)
	got := tick()
	if len(got) == 0 || got[len(got)-1].To != "firing" {
		t.Fatalf("transitions with 2 nodes down = %v, want a firing node-down alert", trans(got))
	}

	reg.SetGauge("nodestore.nodes_down", 0)
	got = tick()
	if len(got) != 1 || got[0].To != "resolved" {
		t.Fatalf("transitions after recovery = %v, want node-down resolved", trans(got))
	}
}
