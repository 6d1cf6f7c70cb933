package obs

import (
	"log/slog"
	"time"

	"repro/internal/core"
)

// A SpanCtx measures one operation: wall time, bytes processed, work
// units (parity or recovered elements) and the element-operation counts
// of core.Ops. Ending a span records into the registry under the span's
// name, using the naming convention Snapshot reassembles:
//
//	<name>.seconds  histogram  operation latency
//	<name>.calls    counter    completed operations
//	<name>.errors   counter    operations that returned an error
//	<name>.bytes    counter    data bytes processed
//	<name>.units    counter    work units (e.g. parity elements written)
//	<name>.xors     counter    element XORs (the paper's cost metric)
//	<name>.copies   counter    element copies (free in the cost model)
//	<name>.zeros    counter    element zeroings (memory traffic only)
//
// A span started by StartOp or StartSpanCtx is also one node of a
// trace when one is active: ending it emits a completion Event carrying
// the span's typed attributes to the tracer's sinks. A span with
// neither a registry nor a trace is a valid no-op, as is a nil span, so
// instrumentation can be left in place unconditionally. A SpanCtx is
// owned by one goroutine; use Emit from workers instead of sharing one.
type SpanCtx struct {
	reg    *Registry
	ts     *traceState
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
	bytes  uint64
	units  uint64
	ops    core.Ops
}

// StartSpan begins a span with no trace. The returned span records
// nothing if r is nil.
func StartSpan(r *Registry, name string) *SpanCtx {
	s := &SpanCtx{reg: r, name: name}
	if r != nil {
		s.start = time.Now()
	}
	return s
}

// TraceID returns the span's trace ID (zero when inert).
func (s *SpanCtx) TraceID() TraceID {
	if s == nil || s.ts == nil {
		return 0
	}
	return s.ts.id
}

// Attr appends typed attributes to the span; they are carried on its
// completion event.
func (s *SpanCtx) Attr(attrs ...Attr) *SpanCtx {
	if s != nil && s.ts != nil {
		s.attrs = append(s.attrs, attrs...)
	}
	return s
}

// Bytes sets the data bytes the operation processed.
func (s *SpanCtx) Bytes(n int) *SpanCtx {
	if s != nil && n > 0 {
		s.bytes = uint64(n)
	}
	return s
}

// Units sets the operation's work-unit count — parity elements written
// for an encode, missing elements recovered for a decode — the
// denominator of the paper's XORs-per-bit metric.
func (s *SpanCtx) Units(n int) *SpanCtx {
	if s != nil && n > 0 {
		s.units = uint64(n)
	}
	return s
}

// Ops accumulates element-operation counts into the span.
func (s *SpanCtx) Ops(o core.Ops) *SpanCtx {
	if s != nil {
		s.ops.Add(o)
	}
	return s
}

// End stops the span and records its families; err != nil additionally
// bumps the error counter. If a trace is active, the completion event
// (name, duration, attributes, error) reaches every sink, raised to
// slog.LevelError by an error. It returns the measured duration (zero
// for no-op spans).
func (s *SpanCtx) End(err error) time.Duration {
	if s == nil || (s.reg == nil && s.ts == nil) {
		return 0
	}
	d := time.Since(s.start)
	if r := s.reg; r != nil {
		r.Histogram(s.name+".seconds", LatencyBuckets).ObserveDuration(d)
		r.Counter(s.name + ".calls").Inc()
		if err != nil {
			r.Counter(s.name + ".errors").Inc()
		}
		if s.bytes > 0 {
			r.Counter(s.name + ".bytes").Add(s.bytes)
		}
		if s.units > 0 {
			r.Counter(s.name + ".units").Add(s.units)
		}
		if s.ops.XORs > 0 {
			r.Counter(s.name + ".xors").Add(s.ops.XORs)
		}
		if s.ops.Copies > 0 {
			r.Counter(s.name + ".copies").Add(s.ops.Copies)
		}
		if s.ops.Zeros > 0 {
			r.Counter(s.name + ".zeros").Add(s.ops.Zeros)
		}
	}
	if s.ts != nil {
		ev := Event{
			Time:   time.Now(),
			Trace:  s.ts.id.String(),
			Span:   s.id.String(),
			Parent: s.parent.String(),
			Name:   s.name,
			Level:  slog.LevelInfo,
			Dur:    d,
			Attrs:  attrMap(s.attrs),
		}
		if err != nil {
			ev.Level = slog.LevelError
			ev.Err = err.Error()
		}
		s.ts.tracer.record(ev)
	}
	return d
}
