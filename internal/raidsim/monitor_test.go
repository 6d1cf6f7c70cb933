package raidsim_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/codes"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/raidsim"
)

// TestMonitorObservesScrub wires an instrumented array into the
// monitoring plane: injected corruption scrubbed out must fire a scrub
// alert, indict the corrupted disk in the per-disk health targets, and
// resolve once the repairs age out of the rule window. The array is the
// signal source; the clock and every transition are deterministic.
func TestMonitorObservesScrub(t *testing.T) {
	code, err := codes.New("liberation", 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := raidsim.New(code, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	arr.Instrument(reg)

	now := time.Date(2026, 8, 8, 6, 0, 0, 0, time.UTC)
	mon, err := monitor.New(monitor.Config{
		Registry: reg,
		Window:   64,
		Rules: []monitor.Rule{{
			Name: "scrub-repairs", Metric: "raid.scrub.repairs",
			Kind: monitor.RuleThreshold, Op: ">", Value: 0,
			Window: monitor.Duration(5 * time.Second), Severity: monitor.SeverityWarning,
		}},
		Tracer:       obs.NewTracer(obs.NewFlightRecorder(64)),
		Now:          func() time.Time { return now },
		HealthWindow: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	tick := func() []monitor.Transition {
		tr := mon.Tick()
		now = now.Add(time.Second)
		return tr
	}

	buf := make([]byte, arr.Capacity())
	if err := arr.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	if tr := tick(); len(tr) != 0 {
		t.Fatalf("quiet tick transitioned: %+v", tr)
	}

	// Corrupt disk 2, scrub it clean: raid.scrub.repairs and the
	// per-disk counter move.
	const victim = 2
	if err := arr.CorruptDisk(victim, 0, 4, 0x5a); err != nil {
		t.Fatal(err)
	}
	results, err := arr.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("scrub repaired nothing")
	}

	tr := tick()
	// For is zero: the rule passes through pending and fires in the same
	// round.
	states := make([]string, len(tr))
	for i, x := range tr {
		states[i] = x.To
	}
	if got := strings.Join(states, " "); got != "pending firing" {
		t.Fatalf("post-scrub transitions = %q, want \"pending firing\"", got)
	}

	h := mon.Health()
	if h.Verdict != monitor.Degraded {
		t.Fatalf("health = %v, want degraded (%+v)", h.Verdict, h.Reasons)
	}
	if got := h.Targets["disk.2"]; got != monitor.Degraded {
		t.Errorf("disk.2 target = %v, want degraded (targets %v)", got, h.Targets)
	}
	found := false
	for _, r := range h.Reasons {
		if r.Target == "disk.2" && strings.Contains(r.Metric, `raid.scrub.repairs{disk="2"}`) {
			found = true
		}
	}
	if !found {
		t.Errorf("no reason indicting disk.2 in %+v", h.Reasons)
	}

	// The repairs age out of the 5s rule window → resolved, healthy.
	var resolved bool
	for i := 0; i < 10 && !resolved; i++ {
		for _, x := range tick() {
			resolved = resolved || x.To == "resolved"
		}
	}
	if !resolved {
		t.Fatal("scrub alert never resolved after the repairs aged out")
	}
	if h := mon.Health(); h.Verdict != monitor.Healthy {
		t.Errorf("post-resolution health = %v (%+v), want healthy", h.Verdict, h.Reasons)
	}
}
