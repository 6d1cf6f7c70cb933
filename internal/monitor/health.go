package monitor

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/obs"
)

// Verdict is the health scorer's per-target conclusion.
type Verdict int

const (
	Healthy Verdict = iota
	Degraded
	Critical
)

func (v Verdict) String() string {
	switch v {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

func (v Verdict) MarshalJSON() ([]byte, error) { return json.Marshal(v.String()) }

func (v *Verdict) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "healthy":
		*v = Healthy
	case "degraded":
		*v = Degraded
	case "critical":
		*v = Critical
	default:
		return fmt.Errorf("monitor: unknown verdict %q", name)
	}
	return nil
}

// A Reason is one human-readable contribution to a verdict, naming the
// metric (or alert) that triggered it and the target it indicts.
type Reason struct {
	Target   string  `json:"target"`           // "array" or "disk.N"
	Severity Verdict `json:"severity"`         // Degraded or Critical
	Metric   string  `json:"metric,omitempty"` // triggering series or rule metric
	Detail   string  `json:"detail"`
}

// Health is one evaluation of the array's condition: the overall
// verdict, the reasons behind it, per-target sub-verdicts, and the alert
// totals it folded in.
type Health struct {
	Verdict Verdict            `json:"verdict"`
	At      time.Time          `json:"at"`
	Window  Duration           `json:"window"`
	Reasons []Reason           `json:"reasons"`
	Targets map[string]Verdict `json:"targets,omitempty"`
	Firing  int                `json:"alerts_firing"`
	Pending int                `json:"alerts_pending"`
}

// healthSignal is one built-in degradation-ladder counter the scorer
// watches: any windowed increase contributes a reason at the given
// severity, independent of the configured alert rules.
type healthSignal struct {
	metric   string
	severity Verdict
	what     string
}

// healthSignals is the degradation ladder in metric form, ordered from
// creeping trouble to data-loss-adjacent. The retry/quarantine/rung
// counters come from the shard engine, faultstore.injected.* from the
// chaos layer, the nodestore/hedge/breaker counters from the node
// fault-domain layer, and the scrub counters from raidsim.
var healthSignals = []healthSignal{
	{"shard.retry.total", Degraded, "transient I/O retries"},
	{"shard.quarantine.total", Degraded, "shard quarantines"},
	{"shard.rung.skip.total", Degraded, "degradation-ladder rungs skipped"},
	{"shard.correct_column.total", Degraded, "silent-corruption column corrections"},
	{"faultstore.injected.total", Degraded, "injected faults"},
	{"raid.scrub.repairs", Degraded, "scrub corruption repairs"},
	{"raid.degraded_reads", Degraded, "degraded reads"},
	{"nodestore.down.total", Degraded, "operations refused by down nodes"},
	{"nodestore.replaced.total", Degraded, "shards re-placed onto spare nodes"},
	{"store.hedge.fired", Degraded, "hedged reads fired against slow nodes"},
	{"store.breaker.open.total", Critical, "node circuit breakers tripped"},
	{"shard.retry.exhausted", Critical, "retry budgets exhausted"},
	{"shard.correct_column.failed", Critical, "failed column corrections"},
	{"shard.decode.errors", Critical, "decode failures"},
	{"shard.repair.errors", Critical, "repair failures"},
}

// labeledSignal is one labeled counter family whose per-child movement
// indicts the child's target: an increase on base{key="V"} becomes a
// reason (and sub-verdict) for target "key.V" instead of the whole
// array.
type labeledSignal struct {
	base     string
	key      string
	severity Verdict
	what     string
}

// labeledSignals is the per-target half of the degradation ladder. The
// emitters attach the disk/node label at the source, so the scorer
// never parses series names — it selects children by label key.
var labeledSignals = []labeledSignal{
	{"raid.scrub.repairs", "disk", Degraded, "scrub corruption repairs"},
	{"nodestore.down.total", "node", Degraded, "operations refused by a down node"},
	{"nodestore.timeout.total", "node", Degraded, "node deadline timeouts"},
	{"store.hedge.fired", "node", Degraded, "hedged reads fired against a slow node"},
	{"nodestore.replaced.total", "node", Degraded, "shards re-placed off a node"},
	{"store.breaker.open.total", "node", Critical, "node circuit breaker tripped"},
}

// Score folds the alert states and the degradation-ladder counters into
// a verdict as of now, looking back window for counter movement. The
// policy: any firing critical alert, or any movement on a critical
// ladder counter, is Critical; any firing warning alert or movement on a
// degraded ladder counter is Degraded; otherwise Healthy. Pending alerts
// never change the verdict — that is what the pending state is for.
func Score(ts *TSStore, alerts []Alert, window time.Duration, now time.Time) Health {
	h := Health{
		Verdict: Healthy,
		At:      now,
		Window:  Duration(window),
		Reasons: []Reason{},
		Targets: map[string]Verdict{"array": Healthy},
	}
	addReason := func(r Reason) {
		h.Reasons = append(h.Reasons, r)
		if r.Severity > h.Targets[r.Target] {
			h.Targets[r.Target] = r.Severity
		}
		if r.Target != "array" && r.Severity > h.Targets["array"] {
			h.Targets["array"] = r.Severity
		}
		if r.Severity > h.Verdict {
			h.Verdict = r.Severity
		}
	}

	for _, a := range alerts {
		switch a.State {
		case StateFiring:
			h.Firing++
			sev := Degraded
			if a.Rule.severity() == SeverityCritical {
				sev = Critical
			}
			target := a.Target
			if target == "" {
				target = "array"
			}
			addReason(Reason{
				Target:   target,
				Severity: sev,
				Metric:   a.Rule.Metric,
				Detail: fmt.Sprintf("alert %s firing on %s: %s %s %s %g (value %.4g, since %s)",
					a.Rule.Name, target, a.Rule.Metric, a.Rule.kind(), a.Rule.op(), a.Rule.Value,
					a.Value, a.Since.Format(time.RFC3339)),
			})
		case StatePending:
			h.Pending++
		}
	}

	if ts != nil {
		for _, sig := range healthSignals {
			inc, ok := ts.Increase(sig.metric, window, now)
			if !ok || inc <= 0 {
				continue
			}
			addReason(Reason{
				Target:   "array",
				Severity: sig.severity,
				Metric:   sig.metric,
				Detail: fmt.Sprintf("%s: %s rose by %g in the last %s",
					sig.what, sig.metric, inc, window),
			})
		}
		for _, sig := range labeledSignals {
			for _, name := range ts.Select(sig.base, nil) {
				_, labels := obs.SplitSeries(name)
				value := ""
				for _, l := range labels {
					if l.Key == sig.key {
						value = l.Value
					}
				}
				if value == "" {
					continue
				}
				inc, ok := ts.Increase(name, window, now)
				if !ok || inc <= 0 {
					continue
				}
				addReason(Reason{
					Target:   sig.key + "." + value,
					Severity: sig.severity,
					Metric:   name,
					Detail: fmt.Sprintf("%s: %s rose by %g in the last %s",
						sig.what, name, inc, window),
				})
			}
		}
	}
	return h
}
