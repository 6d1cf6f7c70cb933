package obs

import (
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"
	"time"
)

// This file is the causal half of the observability layer. A span's
// metric families answer "how much, how fast" in aggregate; the types
// here answer "why did THIS operation do what it did": every recovery
// decision — each retry, quarantine, CorrectColumn heal, erasure
// fallback — becomes a child span or event of one request-scoped trace,
// carried through the stack via context.Context and fanned out to
// pluggable sinks (the JSON event log and the flight recorder).

// A TraceID identifies one causally-related operation tree (one decode,
// one repair, one fault episode). Zero means "no trace".
type TraceID uint64

func (id TraceID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(id))
}

// A SpanID identifies one span within its trace. Zero means "no span"
// (the root span's parent).
type SpanID uint32

func (id SpanID) String() string {
	if id == 0 {
		return ""
	}
	return fmt.Sprintf("%08x", uint32(id))
}

// Attr is a typed event attribute; use the slog constructors
// (slog.String, slog.Int, ...) to build them.
type Attr = slog.Attr

// An Event is one record of the causal stream: a completed span (Dur >
// 0 possible) or a point event (a retry, an injected fault, a
// quarantine decision). Events are plain data — safe to copy, marshal,
// and hold after the trace has moved on.
type Event struct {
	Time   time.Time      `json:"time"`
	Trace  string         `json:"trace"`
	Span   string         `json:"span,omitempty"`
	Parent string         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Level  slog.Level     `json:"level"`
	Dur    time.Duration  `json:"dur_ns,omitempty"`
	Err    string         `json:"err,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// An EventSink receives every event of every trace routed through a
// Tracer. Implementations must be safe for concurrent use.
type EventSink interface {
	RecordEvent(Event)
}

// A Tracer mints trace IDs and fans events out to its sinks. It holds
// no metrics registry: spans carry their own (see StartOp), so causal
// attribution and metric accounting stay independently optional. A nil
// *Tracer is valid and inert.
type Tracer struct {
	sinks []EventSink
	base  uint64
	seq   atomic.Uint64
}

// NewTracer builds a tracer over the given sinks (nil sinks are
// skipped). Trace IDs are unique per process; call Seed for
// reproducible IDs in tests.
func NewTracer(sinks ...EventSink) *Tracer {
	t := &Tracer{base: uint64(time.Now().UnixNano())}
	for _, s := range sinks {
		if s != nil {
			t.sinks = append(t.sinks, s)
		}
	}
	return t
}

// Seed fixes the trace-ID sequence base so tests get deterministic IDs.
func (t *Tracer) Seed(base uint64) { t.base = base }

// Flight returns the tracer's flight recorder sink, if it has one.
func (t *Tracer) Flight() *FlightRecorder {
	if t == nil {
		return nil
	}
	for _, s := range t.sinks {
		if r, ok := s.(*FlightRecorder); ok {
			return r
		}
	}
	return nil
}

func (t *Tracer) record(ev Event) {
	if t == nil {
		return
	}
	for _, s := range t.sinks {
		s.RecordEvent(ev)
	}
}

// newTrace allocates trace state for one operation tree.
func (t *Tracer) newTrace() *traceState {
	n := t.seq.Add(1)
	// splitmix-style spread so consecutive traces don't share prefixes.
	return &traceState{tracer: t, id: TraceID(t.base ^ (n * 0x9e3779b97f4a7c15))}
}

// traceState is the per-trace shared state: the ID and the span-ID
// allocator. It travels inside every SpanCtx of the trace.
type traceState struct {
	tracer *Tracer
	id     TraceID
	next   atomic.Uint32
}

// ctxKey carries the current *SpanCtx through a context.Context.
type ctxKey struct{}

// StartOp begins a span named name as a child of ctx's current span.
// When ctx carries no trace, a new trace is started on tr — or, if tr
// is nil too, the span is causally inert but still records metrics
// into reg. This is the one entry point the data-path operations use:
// top-level calls root a trace, nested calls chain onto it.
func StartOp(ctx context.Context, tr *Tracer, reg *Registry, name string, attrs ...Attr) (context.Context, *SpanCtx) {
	if ctx == nil {
		ctx = context.Background()
	}
	parent, _ := ctx.Value(ctxKey{}).(*SpanCtx)
	var ts *traceState
	var parentID SpanID
	if parent != nil && parent.ts != nil {
		ts = parent.ts
		parentID = parent.id
	} else if tr != nil {
		ts = tr.newTrace()
	}
	s := StartSpan(reg, name)
	if ts != nil {
		s.ts, s.parent, s.attrs = ts, parentID, attrs
		s.id = SpanID(ts.next.Add(1))
		s.start = time.Now()
	}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// StartSpanCtx is StartOp without the trace-rooting fallback: a child
// span when ctx has a trace, an inert metrics-only span otherwise.
func StartSpanCtx(ctx context.Context, reg *Registry, name string, attrs ...Attr) (context.Context, *SpanCtx) {
	return StartOp(ctx, nil, reg, name, attrs...)
}

// Emit records a point event as a child of ctx's current span: it gets
// its own span ID (so sinks see it as a zero-duration child span) and
// the current span as parent. A context without an active trace drops
// the event — instrumentation stays unconditional.
func Emit(ctx context.Context, level slog.Level, name string, attrs ...Attr) {
	EmitErr(ctx, level, name, nil, attrs...)
}

// EmitErr is Emit carrying an error cause.
func EmitErr(ctx context.Context, level slog.Level, name string, err error, attrs ...Attr) {
	if ctx == nil {
		return
	}
	sc, _ := ctx.Value(ctxKey{}).(*SpanCtx)
	if sc == nil || sc.ts == nil {
		return
	}
	ts := sc.ts
	ev := Event{
		Time:   time.Now(),
		Trace:  ts.id.String(),
		Span:   SpanID(ts.next.Add(1)).String(),
		Parent: sc.id.String(),
		Name:   name,
		Level:  level,
		Attrs:  attrMap(attrs),
	}
	if err != nil {
		ev.Err = err.Error()
	}
	ts.tracer.record(ev)
}

// ContextTraceID returns the trace ID ctx carries (zero if none).
func ContextTraceID(ctx context.Context) TraceID {
	if ctx == nil {
		return 0
	}
	sc, _ := ctx.Value(ctxKey{}).(*SpanCtx)
	if sc == nil {
		return 0
	}
	return sc.TraceID()
}

// ContextFlight returns the flight recorder of the tracer whose trace
// ctx carries, if both exist.
func ContextFlight(ctx context.Context) *FlightRecorder {
	if ctx == nil {
		return nil
	}
	sc, _ := ctx.Value(ctxKey{}).(*SpanCtx)
	if sc == nil || sc.ts == nil {
		return nil
	}
	return sc.ts.tracer.Flight()
}

// attrMap resolves a typed attribute list into the Event's plain-data
// form.
func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value.Resolve().Any()
	}
	return m
}
