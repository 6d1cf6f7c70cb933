package raidsim

import (
	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/obs"
)

// Instrument attaches a metrics registry to the array. Every subsequent
// Read/Write/Rebuild/Scrub records a span (raid.read, raid.write,
// raid.rebuild, raid.scrub) carrying latency, bytes, and the element-
// operation counts of the coding work it triggered; the array-level
// event counters (degraded reads, small writes, scrub repairs by disk)
// and the raid.rebuild.progress gauge update live. The array's own
// reference to its code is decorated with the same registry
// (codes.Observe), so the per-algorithm spans (liberation.encode,
// rdp.decode, ...) nest alongside; the code value the caller passed to
// New is left untouched, so other holders of it record nothing. Pass nil
// to detach.
func (a *Array) Instrument(reg *obs.Registry) {
	a.obs = reg
	a.use(codes.Observe(a.bare, reg))
}

// Registry returns the metrics sink attached with Instrument (nil when
// uninstrumented).
func (a *Array) Registry() *obs.Registry { return a.obs }

// Metrics captures the current metric state. Safe on an uninstrumented
// array (returns an empty snapshot).
func (a *Array) Metrics() obs.Snapshot { return a.obs.Snapshot() }

// span starts an observation of one array operation, remembering the
// ops counter position so only the coding work of this call is billed
// to it.
func (a *Array) span(name string) *arraySpan {
	if a.obs == nil {
		return nil
	}
	return &arraySpan{sp: obs.StartSpan(a.obs, name), before: a.Stats.Ops}
}

type arraySpan struct {
	sp     *obs.Span
	before core.Ops
}

// end closes the span, attributing the ops delta since span() and the
// given payload size.
func (s *arraySpan) end(a *Array, bytes int, err error) {
	if s == nil {
		return
	}
	delta := a.Stats.Ops
	delta.XORs -= s.before.XORs
	delta.Copies -= s.before.Copies
	delta.Zeros -= s.before.Zeros
	s.sp.Bytes(bytes).Units(1).Ops(delta).End(err)
}

// count bumps a named event counter (no-op when uninstrumented).
func (a *Array) count(name string, n uint64) {
	a.obs.Count(name, n)
}

// countDisk bumps a disk-labeled event counter: the snapshot renders
// the child as name{disk="N"} and the family total under the bare name.
func (a *Array) countDisk(name string, disk int, n uint64) {
	a.obs.CountWith(name, n, obs.Li("disk", disk))
}
