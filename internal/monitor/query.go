package monitor

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// The query layer: range fetches and windowed aggregations over the
// store's series. Windows are half-open (now-window, now] — a sample
// taken exactly at the window's left edge is excluded, so back-to-back
// windows partition the stream.

// Range returns the named series' samples with from < T <= to, oldest
// first. A zero from means "since forever", a zero to means "until now".
// ok is false when the series does not exist.
func (ts *TSStore) Range(name string, from, to time.Time) (points []Point, kind Kind, ok bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	s := ts.series[name]
	if s == nil {
		return nil, 0, false
	}
	for _, p := range s.points() {
		if !from.IsZero() && !p.T.After(from) {
			continue
		}
		if !to.IsZero() && p.T.After(to) {
			continue
		}
		points = append(points, p)
	}
	return points, s.kind, true
}

// Last returns the newest sample of the named series.
func (ts *TSStore) Last(name string) (Point, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	s := ts.series[name]
	if s == nil || s.n == 0 {
		return Point{}, false
	}
	i := s.next - 1
	if i < 0 {
		i += len(s.buf)
	}
	return s.buf[i], true
}

// window resolves the samples of (now-window, now]; a non-positive
// window means "just the newest sample".
func (ts *TSStore) windowPoints(name string, window time.Duration, now time.Time) ([]Point, Kind, bool) {
	if window <= 0 {
		p, ok := ts.Last(name)
		if !ok {
			return nil, 0, false
		}
		kind, _ := ts.Kind(name)
		return []Point{p}, kind, true
	}
	return ts.Range(name, now.Add(-window), now)
}

// Increase returns the growth of the named series over (now-window, now]:
// for counters the exact sum of the per-interval deltas, for gauges the
// difference between the newest and oldest in-window samples. ok is false
// when the series does not exist or holds no in-window samples.
func (ts *TSStore) Increase(name string, window time.Duration, now time.Time) (float64, bool) {
	pts, kind, ok := ts.windowPoints(name, window, now)
	if !ok || len(pts) == 0 {
		return 0, false
	}
	if kind == KindGauge {
		return pts[len(pts)-1].V - pts[0].V, true
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.V
	}
	return sum, true
}

// Rate returns the per-second rate of the named series over the window:
// Increase divided by the window length. A non-positive window returns
// the newest sample divided by nothing — callers should pass a real
// window; Rate falls back to Increase's semantics with a 1s divisor.
func (ts *TSStore) Rate(name string, window time.Duration, now time.Time) (float64, bool) {
	inc, ok := ts.Increase(name, window, now)
	if !ok {
		return 0, false
	}
	secs := window.Seconds()
	if secs <= 0 {
		secs = 1
	}
	return inc / secs, true
}

// Avg returns the mean of the in-window samples (for counters: the mean
// per-interval delta).
func (ts *TSStore) Avg(name string, window time.Duration, now time.Time) (float64, bool) {
	pts, _, ok := ts.windowPoints(name, window, now)
	if !ok || len(pts) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts)), true
}

// Select returns the sorted canonical names of the labeled children of
// base whose label sets contain every label in match (an empty or nil
// match selects every child). The bare aggregate series is never
// selected — only true `base{...}` children — so summing over a
// selection cannot double-bill an event.
func (ts *TSStore) Select(base string, match []obs.Label) []string {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	var out []string
	for name := range ts.series {
		b, labels := obs.SplitSeries(name)
		if b != base || len(labels) == 0 {
			continue
		}
		if obs.HasLabels(labels, match) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// LabelValues returns the sorted distinct values the given label key
// takes across base's children.
func (ts *TSStore) LabelValues(base, key string) []string {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	seen := map[string]bool{}
	for name := range ts.series {
		b, labels := obs.SplitSeries(name)
		if b != base {
			continue
		}
		for _, l := range labels {
			if l.Key == key {
				seen[l.Value] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// IncreaseMatched returns the summed Increase over (now-window, now] of
// the series selected by (base, match). A nil match queries exactly the
// named series (which may itself be a canonical labeled name); a
// non-empty match sums across the matching labeled children. ok is false
// when nothing matched or no matched series held in-window samples.
func (ts *TSStore) IncreaseMatched(base string, match []obs.Label, window time.Duration, now time.Time) (float64, bool) {
	if len(match) == 0 {
		return ts.Increase(base, window, now)
	}
	sum, any := 0.0, false
	for _, name := range ts.Select(base, match) {
		if v, ok := ts.Increase(name, window, now); ok {
			sum += v
			any = true
		}
	}
	return sum, any
}

// RateMatched is IncreaseMatched divided by the window length in seconds.
func (ts *TSStore) RateMatched(base string, match []obs.Label, window time.Duration, now time.Time) (float64, bool) {
	inc, ok := ts.IncreaseMatched(base, match, window, now)
	if !ok {
		return 0, false
	}
	secs := window.Seconds()
	if secs <= 0 {
		secs = 1
	}
	return inc / secs, true
}

// Max returns the largest in-window sample.
func (ts *TSStore) Max(name string, window time.Duration, now time.Time) (float64, bool) {
	pts, _, ok := ts.windowPoints(name, window, now)
	if !ok || len(pts) == 0 {
		return 0, false
	}
	max := pts[0].V
	for _, p := range pts[1:] {
		if p.V > max {
			max = p.V
		}
	}
	return max, true
}
