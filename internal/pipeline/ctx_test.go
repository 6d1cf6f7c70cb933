package pipeline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/liberation"
	"repro/internal/obs"
)

// TestContextCancellation checks that a cancelled Config.Context stops
// the pool, surfaces the typed context.Canceled error, and attributes
// the cancellation in the causal trace (pipeline.worker.cancel events
// plus the bulk span ending with the error) rather than losing it in a
// counter.
func TestContextCancellation(t *testing.T) {
	code, _ := liberation.New(4, 5)
	stripes := make([]*core.Stripe, 64)
	for i := range stripes {
		stripes[i] = core.NewStripe(4, 5, 32)
	}

	rec := obs.NewFlightRecorder(256)
	tr := obs.NewTracer(rec)
	tr.Seed(0)
	reg := obs.NewRegistry()
	ctx, root := obs.StartOp(context.Background(), tr, reg, "bulk")

	// Cancel after the first few stripes encode: the fn itself trips
	// the cancellation, so workers observe a dead context mid-queue.
	cctx, cancel := context.WithCancel(ctx)
	var done atomic.Int32 // both workers count
	wrapped := func(s *core.Stripe, o *core.Ops) error {
		if done.Add(1) >= 3 {
			cancel()
		}
		return code.Encode(s, o)
	}
	rep, err := forEach("pipeline.encode", stripes, Config{
		Workers: 2, Registry: reg, Context: cctx,
	}, nil, wrapped)
	root.End(err)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Stripes >= len(stripes) {
		t.Errorf("cancellation processed all %d stripes", rep.Stripes)
	}

	events := rec.Snapshot()
	var cancels int
	for _, ev := range events {
		if ev.Name == "pipeline.worker.cancel" {
			cancels++
			if ev.Err != context.Canceled.Error() {
				t.Errorf("cancel event err = %q, want %q", ev.Err, context.Canceled)
			}
			if _, ok := ev.Attrs["worker"]; !ok {
				t.Errorf("cancel event lacks worker attribution: %+v", ev)
			}
			if ev.Trace != root.TraceID().String() {
				t.Errorf("cancel event trace %q, want %q", ev.Trace, root.TraceID())
			}
		}
	}
	if cancels == 0 {
		t.Error("no pipeline.worker.cancel events recorded")
	}
	if got := reg.Counter("pipeline.encode.cancelled").Value(); got == 0 {
		t.Error("pipeline.encode.cancelled counter not bumped")
	}
	// The bulk span itself must end with the typed error.
	last := events[len(events)-1]
	if last.Name != "bulk" || last.Err == "" {
		t.Errorf("root span event = %+v, want bulk with error", last)
	}
}

// TestContextCancellationSerial covers the single-worker path.
func TestContextCancellationSerial(t *testing.T) {
	code, _ := liberation.New(4, 5)
	stripes := make([]*core.Stripe, 16)
	for i := range stripes {
		stripes[i] = core.NewStripe(4, 5, 32)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	fn := func(s *core.Stripe, o *core.Ops) error {
		if done++; done == 2 {
			cancel()
		}
		return code.Encode(s, o)
	}
	rep, err := forEach("pipeline.encode", stripes, Config{Workers: 1, Context: ctx}, nil, fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Stripes == 0 || rep.Stripes >= len(stripes) {
		t.Errorf("stripes processed = %d, want partial progress", rep.Stripes)
	}
}
