package monitor

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// A Duration is a time.Duration that marshals as a parseable string
// ("30s", "5m") and unmarshals from either that form or a plain number
// of nanoseconds, so rule files stay human-writable.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("monitor: bad duration %q: %w", s, err)
		}
		*d = Duration(v)
		return nil
	}
	ns, err := strconv.ParseInt(string(b), 10, 64)
	if err != nil {
		return fmt.Errorf("monitor: bad duration %s: %w", b, err)
	}
	*d = Duration(ns)
	return nil
}

// Rule kinds: how the rule turns its metric's series into the value
// compared against Value.
const (
	// KindThreshold compares the windowed increase of a counter (or the
	// newest sample of a gauge; Window > 0 aggregates gauges with Agg).
	RuleThreshold = "threshold"
	// KindRate compares the per-second rate of a counter over Window —
	// the burn-rate form.
	RuleRate = "rate"
	// RuleBurnRate compares an SLO burn rate: the fraction of the error
	// budget being consumed per unit budget, computed from a good/total
	// (or bad/total) counter pair. The rule's value is
	// min(burn(Window), burn(ShortWindow)) — the multi-window form, which
	// only triggers while the budget is burning both recently and
	// persistently.
	RuleBurnRate = "burnrate"
)

// Rule severities, in escalation order.
const (
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// A Rule declares one alert condition over one series.
type Rule struct {
	// Name identifies the alert in transitions, events, and the API.
	Name string `json:"name"`
	// Metric names the series evaluated (a registry counter or gauge
	// name, or a histogram's derived <name>.count / <name>.sum series).
	Metric string `json:"metric"`
	// Kind is RuleThreshold (windowed increase / gauge level) or
	// RuleRate (per-second burn rate). Empty means RuleThreshold.
	Kind string `json:"kind,omitempty"`
	// Op compares the evaluated value against Value: one of > >= < <= ==
	// != (default >).
	Op string `json:"op,omitempty"`
	// Value is the comparison threshold.
	Value float64 `json:"value"`
	// Window is the aggregation window (0 = newest sample only).
	Window Duration `json:"window,omitempty"`
	// For is the hysteresis hold: the condition must stay true this long
	// after entering pending before the alert fires. 0 fires immediately
	// (the pending transition is still emitted).
	For Duration `json:"for,omitempty"`
	// Agg selects the gauge aggregation for threshold rules with a
	// window: "last" (default), "avg", or "max". Counters always sum
	// their deltas.
	Agg string `json:"agg,omitempty"`
	// Severity is SeverityWarning (default) or SeverityCritical; it sets
	// the event level of the firing transition and the health verdict a
	// firing alert implies.
	Severity string `json:"severity,omitempty"`

	// By fans the rule out per label value: the rule is evaluated once
	// for every value the By key takes across the metric's labeled
	// children, each with its own alert lifecycle and a Target of
	// "<By>.<value>" (e.g. "node.3"). New label values are discovered on
	// every evaluation round.
	By string `json:"by,omitempty"`

	// Burn-rate rules (Kind == RuleBurnRate) derive their value from a
	// counter pair instead of Metric: Total names the total-events series
	// and either Good (events within objective) or Bad (events violating
	// it) names the numerator's complement. Budget is the error budget as
	// a fraction (1 - objective); ShortWindow is the fast window of the
	// multi-window form (0 = long window only). Value is then the burn
	// factor threshold: budget consumption per unit budget.
	Good        string   `json:"good,omitempty"`
	Bad         string   `json:"bad,omitempty"`
	Total       string   `json:"total,omitempty"`
	Budget      float64  `json:"budget,omitempty"`
	ShortWindow Duration `json:"short_window,omitempty"`
}

func (r Rule) severity() string {
	if r.Severity == "" {
		return SeverityWarning
	}
	return r.Severity
}

func (r Rule) kind() string {
	if r.Kind == "" {
		return RuleThreshold
	}
	return r.Kind
}

func (r Rule) op() string {
	if r.Op == "" {
		return ">"
	}
	return r.Op
}

// discoveryMetric is the series whose label values enumerate a By
// rule's targets.
func (r Rule) discoveryMetric() string {
	if r.kind() == RuleBurnRate {
		return r.Total
	}
	return r.Metric
}

func (r Rule) validate() error {
	if r.Name == "" {
		return fmt.Errorf("monitor: rule without a name")
	}
	switch r.kind() {
	case RuleThreshold, RuleRate:
		if r.Metric == "" {
			return fmt.Errorf("monitor: rule %q names no metric", r.Name)
		}
	case RuleBurnRate:
		if r.Total == "" {
			return fmt.Errorf("monitor: burnrate rule %q names no total series", r.Name)
		}
		if (r.Good == "") == (r.Bad == "") {
			return fmt.Errorf("monitor: burnrate rule %q needs exactly one of good or bad", r.Name)
		}
		if r.Budget <= 0 || r.Budget >= 1 {
			return fmt.Errorf("monitor: burnrate rule %q needs a budget in (0, 1), got %g",
				r.Name, r.Budget)
		}
		if r.Window <= 0 {
			return fmt.Errorf("monitor: burnrate rule %q needs a window", r.Name)
		}
		if r.ShortWindow < 0 || r.ShortWindow >= r.Window {
			return fmt.Errorf("monitor: burnrate rule %q short window must sit inside the window", r.Name)
		}
	default:
		return fmt.Errorf("monitor: rule %q has unknown kind %q (want %s, %s or %s)",
			r.Name, r.Kind, RuleThreshold, RuleRate, RuleBurnRate)
	}
	if r.kind() == RuleRate && r.Window <= 0 {
		return fmt.Errorf("monitor: rate rule %q needs a window", r.Name)
	}
	switch r.op() {
	case ">", ">=", "<", "<=", "==", "!=":
	default:
		return fmt.Errorf("monitor: rule %q has unknown op %q", r.Name, r.Op)
	}
	switch r.Agg {
	case "", "last", "avg", "max":
	default:
		return fmt.Errorf("monitor: rule %q has unknown agg %q (want last, avg or max)",
			r.Name, r.Agg)
	}
	switch r.severity() {
	case SeverityWarning, SeverityCritical:
	default:
		return fmt.Errorf("monitor: rule %q has unknown severity %q (want %s or %s)",
			r.Name, r.Severity, SeverityWarning, SeverityCritical)
	}
	return nil
}

// ParseDoc reads the full declarative alerting document: either a bare
// array of rules, or an object {"rules": [...], "slos": [...]} where
// each SLO compiles into its burn-rate rule pair at monitor.New time.
// Rules are validated here; SLO validation happens at compile time so
// hand-built monitor.Config{SLOs: ...} goes through the same checks.
func ParseDoc(r io.Reader) ([]Rule, []SLO, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	var rules []Rule
	var slos []SLO
	if err := json.Unmarshal(data, &rules); err != nil {
		var doc struct {
			Rules []Rule `json:"rules"`
			SLOs  []SLO  `json:"slos"`
		}
		if derr := json.Unmarshal(data, &doc); derr != nil {
			return nil, nil, fmt.Errorf("monitor: parsing rules: %w", err)
		}
		rules, slos = doc.Rules, doc.SLOs
	}
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, nil, err
		}
	}
	return rules, slos, nil
}

// LoadDoc reads a rules-and-SLOs file (see ParseDoc).
func LoadDoc(path string) ([]Rule, []SLO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ParseDoc(f)
}

// State is an alert's position in its lifecycle.
type State int

const (
	StateOK State = iota
	StatePending
	StateFiring
)

func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "ok":
		*s = StateOK
	case "pending":
		*s = StatePending
	case "firing":
		*s = StateFiring
	default:
		return fmt.Errorf("monitor: unknown alert state %q", name)
	}
	return nil
}

// A Transition is one alert state change. To is the state entered —
// "pending", "firing", "resolved" (firing → ok) or "ok" (pending → ok,
// the condition cleared before For elapsed).
type Transition struct {
	Rule  string    `json:"rule"`
	From  string    `json:"from"`
	To    string    `json:"to"`
	At    time.Time `json:"at"`
	Value float64   `json:"value"`
	Trace string    `json:"trace,omitempty"`
	// Target is the fan-out target of a By rule ("node.3"); empty for
	// array-wide rules.
	Target string `json:"target,omitempty"`
}

// An Alert is the queryable state of one rule.
type Alert struct {
	Rule  Rule  `json:"rule"`
	State State `json:"state"`
	// Value is the rule's most recently evaluated value.
	Value float64 `json:"value"`
	// Since is when the current state was entered (zero while ok and
	// never triggered).
	Since time.Time `json:"since,omitempty"`
	// FiredAt / ResolvedAt bracket the most recent firing episode.
	FiredAt    time.Time `json:"fired_at,omitempty"`
	ResolvedAt time.Time `json:"resolved_at,omitempty"`
	// Trace is the causal trace ID of the current (or, after resolution,
	// the last) alert episode: every transition event of the episode
	// carries it, so the flight recorder replays the alert's history.
	Trace string `json:"trace,omitempty"`
	// Transitions counts lifetime state changes of this rule.
	Transitions uint64 `json:"transitions"`
	// Target is the fan-out target this alert instance watches ("node.3"
	// for a By rule); empty for array-wide rules. Health scoring indicts
	// the target instead of the whole array.
	Target string `json:"target,omitempty"`
}

// alertState is the engine's mutable per-rule state. The episode trace
// is rooted when the rule leaves ok and ended when it returns there, so
// one alert episode — pending, firing, and the resolution — is one
// causally-correlated trace.
type alertState struct {
	rule        Rule
	target      string      // "node.3" for By-rule children, "" otherwise
	labels      []obs.Label // label selector pinning the child's series
	state       State
	since       time.Time
	value       float64
	firedAt     time.Time
	resolvedAt  time.Time
	transitions uint64

	ctx   context.Context
	span  *obs.SpanCtx
	trace string
}

// ruleStates is one configured rule's alert state: a single lifecycle
// for array-wide rules, one lazily-discovered lifecycle per label value
// for By rules.
type ruleStates struct {
	rule     Rule
	solo     *alertState            // By == ""
	kids     map[string]*alertState // By != "": label value -> state
	kidOrder []string               // discovery order, for stable output
}

// Engine evaluates a fixed rule set against a TSStore, driving each
// rule's ok → pending → firing → resolved lifecycle and emitting every
// transition as a typed event into the trace layer (and as
// monitor.transition.* counters into the registry). Eval is serialized
// by the engine's lock; Alerts may be called concurrently.
type Engine struct {
	mu     sync.Mutex
	rules  []*ruleStates
	tracer *obs.Tracer
	reg    *obs.Registry
}

// NewEngine validates the rules and builds an engine over them.
// Transition events are fanned out to tracer's sinks; reg (optional)
// receives monitor.transition.* counters and the monitor.alerts.firing
// gauge.
func NewEngine(rules []Rule, tracer *obs.Tracer, reg *obs.Registry) (*Engine, error) {
	e := &Engine{tracer: tracer, reg: reg}
	seen := make(map[string]bool, len(rules))
	for _, r := range rules {
		if err := r.validate(); err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("monitor: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
		rs := &ruleStates{rule: r}
		if r.By == "" {
			rs.solo = &alertState{rule: r}
		} else {
			rs.kids = make(map[string]*alertState)
		}
		e.rules = append(e.rules, rs)
	}
	return e, nil
}

// seriesFor resolves the concrete series name a (possibly fanned-out)
// state evaluates: the bare name for array-wide rules, the canonical
// labeled child for By children.
func seriesFor(base string, labels []obs.Label) string {
	return obs.SeriesName(base, labels)
}

// evalValue resolves a state's comparison value from the store. ok is
// false when the series has no usable samples (the condition is then
// treated as false).
func evalValue(ts *TSStore, r Rule, labels []obs.Label, now time.Time) (float64, bool) {
	window := time.Duration(r.Window)
	if r.kind() == RuleBurnRate {
		return evalBurn(ts, r, labels, now)
	}
	name := seriesFor(r.Metric, labels)
	if r.kind() == RuleRate {
		return ts.Rate(name, window, now)
	}
	kind, exists := ts.Kind(name)
	if !exists {
		return 0, false
	}
	if kind == KindGauge {
		switch r.Agg {
		case "avg":
			return ts.Avg(name, window, now)
		case "max":
			return ts.Max(name, window, now)
		default:
			p, ok := ts.Last(name)
			return p.V, ok
		}
	}
	return ts.Increase(name, window, now)
}

// evalBurn computes a burn-rate rule's value: budget consumption per
// unit budget over the long window, clamped by the short window when one
// is configured — min(burnLong, burnShort) only exceeds the threshold
// while the burn is both persistent and still happening.
func evalBurn(ts *TSStore, r Rule, labels []obs.Label, now time.Time) (float64, bool) {
	long, ok := burnOver(ts, r, labels, time.Duration(r.Window), now)
	if !ok {
		return 0, false
	}
	if r.ShortWindow <= 0 {
		return long, true
	}
	short, ok := burnOver(ts, r, labels, time.Duration(r.ShortWindow), now)
	if !ok {
		short = 0 // no recent events: nothing is burning right now
	}
	if short < long {
		return short, true
	}
	return long, true
}

// burnOver is the burn rate over one window: (bad events / total
// events) / budget. ok is false when the total series has no in-window
// movement — an idle service consumes no budget.
func burnOver(ts *TSStore, r Rule, labels []obs.Label, window time.Duration, now time.Time) (float64, bool) {
	total, ok := ts.Increase(seriesFor(r.Total, labels), window, now)
	if !ok || total <= 0 {
		return 0, false
	}
	var bad float64
	if r.Bad != "" {
		// A bad-events series that does not exist yet means zero bad events.
		bad, _ = ts.Increase(seriesFor(r.Bad, labels), window, now)
	} else {
		good, _ := ts.Increase(seriesFor(r.Good, labels), window, now)
		bad = total - good
	}
	if bad < 0 {
		bad = 0
	}
	return (bad / total) / r.Budget, true
}

func compare(v float64, op string, threshold float64) bool {
	switch op {
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	case "==":
		return v == threshold
	case "!=":
		return v != threshold
	default:
		return false
	}
}

// Eval runs one evaluation round at now and returns the transitions it
// caused, in rule order (By-rule children in discovery order within
// their rule). A rule whose For has already been satisfied when it
// first triggers still passes through pending: both transitions are
// emitted in the same round.
func (e *Engine) Eval(ts *TSStore, now time.Time) []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Transition
	firing := 0
	for _, rs := range e.rules {
		for _, st := range rs.statesAt(ts) {
			out = e.evalState(st, ts, now, out)
			if st.state == StateFiring {
				firing++
			}
		}
	}
	if e.reg != nil {
		e.reg.SetGauge("monitor.alerts.firing", float64(firing))
	}
	return out
}

// statesAt returns the rule's live alert states, discovering new By
// targets from the store's current label values. A target once seen
// keeps its state even if its series is later evicted — the alert then
// resolves through the normal no-data path rather than vanishing.
func (rs *ruleStates) statesAt(ts *TSStore) []*alertState {
	if rs.rule.By == "" {
		return []*alertState{rs.solo}
	}
	for _, v := range ts.LabelValues(rs.rule.discoveryMetric(), rs.rule.By) {
		if rs.kids[v] == nil {
			rs.kids[v] = &alertState{
				rule:   rs.rule,
				target: rs.rule.By + "." + v,
				labels: []obs.Label{obs.L(rs.rule.By, v)},
			}
			rs.kidOrder = append(rs.kidOrder, v)
		}
	}
	out := make([]*alertState, 0, len(rs.kidOrder))
	for _, v := range rs.kidOrder {
		out = append(out, rs.kids[v])
	}
	return out
}

// evalState drives one alert lifecycle through one round.
func (e *Engine) evalState(st *alertState, ts *TSStore, now time.Time, out []Transition) []Transition {
	v, ok := evalValue(ts, st.rule, st.labels, now)
	cond := ok && compare(v, st.rule.op(), st.rule.Value)
	st.value = v
	switch st.state {
	case StateOK:
		if cond {
			e.beginEpisode(st)
			out = append(out, e.transition(st, StatePending, "pending", now, v))
			if now.Sub(st.since) >= time.Duration(st.rule.For) {
				out = append(out, e.transition(st, StateFiring, "firing", now, v))
			}
		}
	case StatePending:
		if !cond {
			out = append(out, e.transition(st, StateOK, "ok", now, v))
			e.endEpisode(st, now)
		} else if now.Sub(st.since) >= time.Duration(st.rule.For) {
			out = append(out, e.transition(st, StateFiring, "firing", now, v))
		}
	case StateFiring:
		if !cond {
			out = append(out, e.transition(st, StateOK, "resolved", now, v))
			e.endEpisode(st, now)
		}
	}
	return out
}

// beginEpisode roots the alert episode's trace: subsequent transition
// events chain onto it until the episode ends.
func (e *Engine) beginEpisode(st *alertState) {
	ctx, span := obs.StartOp(context.Background(), e.tracer, e.reg, "monitor.alert",
		slog.String("rule", st.rule.Name),
		slog.String("metric", st.rule.Metric),
		slog.String("target", st.target),
		slog.String("severity", st.rule.severity()))
	st.ctx, st.span = ctx, span
	st.trace = span.TraceID().String()
}

// endEpisode closes the episode's root span. A resolved episode keeps
// its trace ID on the alert state so operators can still correlate it.
func (e *Engine) endEpisode(st *alertState, now time.Time) {
	if st.span != nil {
		st.span.End(nil)
	}
	st.ctx, st.span = nil, nil
	st.resolvedAt = now
}

// transition moves st to state, emitting the typed event and counters.
func (e *Engine) transition(st *alertState, state State, to string, now time.Time, v float64) Transition {
	from := st.state.String()
	st.state = state
	st.since = now
	st.transitions++
	if to == "firing" {
		st.firedAt = now
	}
	level := slog.LevelInfo
	switch {
	case to == "firing" && st.rule.severity() == SeverityCritical:
		level = slog.LevelError
	case to == "firing" || to == "pending":
		level = slog.LevelWarn
	}
	obs.Emit(st.ctx, level, "monitor.alert."+to,
		slog.String("rule", st.rule.Name),
		slog.String("metric", st.rule.Metric),
		slog.String("target", st.target),
		slog.String("severity", st.rule.severity()),
		slog.String("from", from),
		slog.Float64("value", v))
	e.reg.Count("monitor.transitions.total", 1)
	e.reg.Count("monitor.transition."+to, 1)
	return Transition{
		Rule: st.rule.Name, From: from, To: to, At: now, Value: v, Trace: st.trace,
		Target: st.target,
	}
}

// Alerts returns the current state of every alert lifecycle, in rule
// order; a By rule contributes one alert per discovered target.
func (e *Engine) Alerts() []Alert {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, 0, len(e.rules))
	for _, rs := range e.rules {
		states := []*alertState{rs.solo}
		if rs.rule.By != "" {
			states = states[:0]
			for _, v := range rs.kidOrder {
				states = append(states, rs.kids[v])
			}
		}
		for _, st := range states {
			out = append(out, Alert{
				Rule:        st.rule,
				State:       st.state,
				Value:       st.value,
				Since:       st.since,
				FiredAt:     st.firedAt,
				ResolvedAt:  st.resolvedAt,
				Trace:       st.trace,
				Transitions: st.transitions,
				Target:      st.target,
			})
		}
	}
	return out
}
