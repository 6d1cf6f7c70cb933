package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Snapshot is a point-in-time copy of a registry: raw metrics plus the
// per-span summaries derived from the span naming convention. It is
// plain data — safe to marshal, compare, or hold while the registry keeps
// moving.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      map[string]SpanStats         `json:"spans,omitempty"`
}

// SpanStats is the derived summary of one span family: the paper's two
// observables (XOR counts and wall time) joined into throughput and
// XORs-per-unit rates.
type SpanStats struct {
	Calls  uint64 `json:"calls"`
	Errors uint64 `json:"errors,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
	Units  uint64 `json:"units,omitempty"`
	XORs   uint64 `json:"xors,omitempty"`
	Copies uint64 `json:"copies,omitempty"`
	Zeros  uint64 `json:"zeros,omitempty"`

	Latency HistogramSnapshot `json:"latency"`

	// BytesPerSec is Bytes divided by the summed in-span wall time.
	BytesPerSec float64 `json:"bytes_per_sec,omitempty"`
	// XORsPerUnit is XORs/Units — for an encode span, XORs per parity
	// element, directly comparable to the paper's k-1 lower bound.
	XORsPerUnit float64 `json:"xors_per_unit,omitempty"`
}

// Snapshot captures every metric in the registry. Safe to call while
// writers are mutating; a nil registry yields an empty snapshot.
//
// Labeled metrics appear two ways, both under the counter/gauge/
// histogram maps keyed by canonical series name (see SeriesName):
//
//   - every child:        raid.scrub.repairs{disk="3"}
//   - the family total:   raid.scrub.repairs — the sum (merge, for
//     histograms) of the children, emitted only when no unlabeled metric
//     already owns the bare name, so a migrated emitter keeps its old
//     aggregate series alive for free.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Spans:      map[string]SpanStats{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	cfam := make(map[string]*family[*Counter], len(r.cfam))
	for k, v := range r.cfam {
		cfam[k] = v
	}
	gfam := make(map[string]*family[*Gauge], len(r.gfam))
	for k, v := range r.gfam {
		gfam[k] = v
	}
	hfam := make(map[string]*family[*Histogram], len(r.hfam))
	for k, v := range r.hfam {
		hfam[k] = v
	}
	r.mu.RUnlock()

	for k, v := range counters {
		s.Counters[k] = v.Value()
	}
	for k, v := range gauges {
		s.Gauges[k] = v.Value()
	}
	for k, v := range hists {
		s.Histograms[k] = v.snapshot()
	}

	for base, f := range cfam {
		entries := f.snapshotEntries()
		if len(entries) == 0 {
			continue
		}
		var total uint64
		for _, e := range entries {
			v := e.metric.Value()
			total += v
			s.Counters[SeriesName(base, e.labels)] = v
		}
		if _, taken := s.Counters[base]; !taken {
			s.Counters[base] = total
		}
	}
	for base, f := range gfam {
		entries := f.snapshotEntries()
		if len(entries) == 0 {
			continue
		}
		var total float64
		for _, e := range entries {
			v := e.metric.Value()
			total += v
			s.Gauges[SeriesName(base, e.labels)] = v
		}
		if _, taken := s.Gauges[base]; !taken {
			s.Gauges[base] = total
		}
	}
	for base, f := range hfam {
		entries := f.snapshotEntries()
		if len(entries) == 0 {
			continue
		}
		var agg HistogramSnapshot
		for i, e := range entries {
			hs := e.metric.snapshot()
			if i == 0 {
				agg = hs
			} else {
				agg = mergeHistogramSnapshots(agg, hs)
			}
			s.Histograms[SeriesName(base, e.labels)] = hs
		}
		if _, taken := s.Histograms[base]; !taken {
			s.Histograms[base] = agg
		}
	}

	// Reassemble span families: every ".calls" counter roots one.
	for name, calls := range s.Counters {
		base, ok := strings.CutSuffix(name, ".calls")
		if !ok {
			continue
		}
		st := SpanStats{
			Calls:   calls,
			Errors:  s.Counters[base+".errors"],
			Bytes:   s.Counters[base+".bytes"],
			Units:   s.Counters[base+".units"],
			XORs:    s.Counters[base+".xors"],
			Copies:  s.Counters[base+".copies"],
			Zeros:   s.Counters[base+".zeros"],
			Latency: s.Histograms[base+".seconds"],
		}
		if st.Latency.Sum > 0 {
			st.BytesPerSec = float64(st.Bytes) / st.Latency.Sum
		}
		if st.Units > 0 {
			st.XORsPerUnit = float64(st.XORs) / float64(st.Units)
		}
		s.Spans[base] = st
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteText renders the snapshot as a human-readable report with
// deterministic ordering.
func (s Snapshot) WriteText(w io.Writer) {
	if len(s.Spans) > 0 {
		fmt.Fprintln(w, "spans:")
		for _, name := range sortedNames(s.Spans) {
			sp := s.Spans[name]
			fmt.Fprintf(w, "  %-24s calls=%d errors=%d bytes=%d xors=%d copies=%d zeros=%d\n",
				name, sp.Calls, sp.Errors, sp.Bytes, sp.XORs, sp.Copies, sp.Zeros)
			if sp.Latency.Count > 0 {
				fmt.Fprintf(w, "  %-24s latency p50=%s p90=%s p99=%s mean=%s\n",
					"", fmtSeconds(sp.Latency.P50), fmtSeconds(sp.Latency.P90),
					fmtSeconds(sp.Latency.P99), fmtSeconds(sp.Latency.Mean))
			}
			if sp.BytesPerSec > 0 || sp.XORsPerUnit > 0 {
				fmt.Fprintf(w, "  %-24s throughput=%.1f MB/s xors/unit=%.4f\n",
					"", sp.BytesPerSec/1e6, sp.XORsPerUnit)
			}
		}
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range sortedNames(s.Counters) {
			fmt.Fprintf(w, "  %-40s %d\n", name, s.Counters[name])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedNames(s.Gauges) {
			fmt.Fprintf(w, "  %-40s %g\n", name, s.Gauges[name])
		}
	}
}

// mergeHistogramSnapshots folds b into a (the family aggregate). The
// children of one family share bucket bounds by construction; on a
// mismatch the merge keeps a unchanged rather than inventing buckets.
func mergeHistogramSnapshots(a, b HistogramSnapshot) HistogramSnapshot {
	if len(a.Counts) != len(b.Counts) {
		return a
	}
	out := a
	out.Counts = append([]uint64(nil), a.Counts...)
	for i, n := range b.Counts {
		out.Counts[i] += n
	}
	out.Count = a.Count + b.Count
	out.Sum = a.Sum + b.Sum
	switch {
	case a.Count == 0:
		out.Min, out.Max = b.Min, b.Max
	case b.Count == 0:
		out.Min, out.Max = a.Min, a.Max
	default:
		out.Min = math.Min(a.Min, b.Min)
		out.Max = math.Max(a.Max, b.Max)
	}
	if out.Count > 0 {
		out.Mean = out.Sum / float64(out.Count)
		out.P50 = out.Quantile(0.50)
		out.P90 = out.Quantile(0.90)
		out.P99 = out.Quantile(0.99)
	}
	return out
}

func fmtSeconds(v float64) string {
	switch {
	case v >= 1:
		return fmt.Sprintf("%.3gs", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.3gms", v*1e3)
	default:
		return fmt.Sprintf("%.3gµs", v*1e6)
	}
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Metric names have non-alphanumeric runes
// replaced with underscores; labeled series render with proper brace
// syntax (metric{node="3",code="liberation"}), grouped so every sample
// of one metric name sits under a single # TYPE line; histograms emit
// cumulative _bucket series plus _sum and _count, with the le label
// merged after the series' own labels.
func (s Snapshot) WritePrometheus(w io.Writer) {
	writeGrouped(w, s.Counters, "counter", func(w io.Writer, pn, labels string, v uint64) {
		fmt.Fprintf(w, "%s%s %d\n", pn, labels, v)
	})
	writeGrouped(w, s.Gauges, "gauge", func(w io.Writer, pn, labels string, v float64) {
		fmt.Fprintf(w, "%s%s %g\n", pn, labels, v)
	})
	writeGrouped(w, s.Histograms, "histogram", func(w io.Writer, pn, labels string, h HistogramSnapshot) {
		cum := uint64(0)
		for i, n := range h.Counts {
			cum += n
			le := "+Inf"
			if i < len(h.Bounds) {
				le = trimFloat(h.Bounds[i])
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", pn, mergeLE(labels, le), cum)
		}
		fmt.Fprintf(w, "%s_sum%s %g\n", pn, labels, h.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", pn, labels, h.Count)
	})
}

// writeGrouped renders one metric map: series are grouped by base name
// (sorted), each group gets one # TYPE line, and within a group the
// unlabeled aggregate renders first, then the children in canonical
// order.
func writeGrouped[V any](w io.Writer, m map[string]V, typ string,
	render func(io.Writer, string, string, V)) {
	for _, base := range groupBases(m) {
		pn := promName(base)
		fmt.Fprintf(w, "# TYPE %s %s\n", pn, typ)
		if v, ok := m[base]; ok {
			render(w, pn, "", v)
		}
		for _, series := range sortedNames(m) {
			sb, labels := SplitSeries(series)
			if sb != base || len(labels) == 0 {
				continue
			}
			var b strings.Builder
			writeLabelSet(&b, labels)
			render(w, pn, b.String(), m[series])
		}
	}
}

// groupBases returns the sorted distinct base names of a metric map.
func groupBases[V any](m map[string]V) []string {
	seen := make(map[string]bool, len(m))
	var out []string
	for series := range m {
		base, _ := SplitSeries(series)
		if !seen[base] {
			seen[base] = true
			out = append(out, base)
		}
	}
	sort.Strings(out)
	return out
}

// mergeLE appends the le label to an already-rendered label set.
func mergeLE(labels, le string) string {
	if labels == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("%s,le=%q}", strings.TrimSuffix(labels, "}"), le)
}

func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func trimFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
