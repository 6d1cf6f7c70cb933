// Package pipeline parallelizes bulk coding work across stripes. One
// stripe's encode or decode is inherently sequential (the zig-zag chain
// carries a dependency), but a large write or a full rebuild spans many
// independent stripes, which is exactly the parallelism a multi-core
// storage server exploits. The pool here is a fixed set of workers pulling
// stripe indices from a channel — no locks on the data path, since every
// stripe touches disjoint memory and the Code implementations are safe
// for concurrent use.
package pipeline

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config controls a bulk operation.
type Config struct {
	// Workers is the number of concurrent goroutines (0 = GOMAXPROCS).
	Workers int
	// Registry, when non-nil, receives a span per bulk call
	// (pipeline.encode / pipeline.decode) plus queue-wait and
	// stripes-per-worker histograms.
	Registry *obs.Registry
	// Context cancels the bulk operation between stripes: the producer
	// stops feeding, each worker drains the queue without processing,
	// and the call returns ctx.Err(). When the context carries an
	// active trace, every worker's early exit is attributed with a
	// pipeline.worker.cancel event carrying the typed cancellation
	// cause, and the bulk span ends with that error — cancellation is
	// causally visible, not just a counter bump. Nil means no
	// cancellation.
	Context context.Context
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) context() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// Report describes how a bulk operation actually ran: how the stripes
// were spread over the pool and how long workers sat idle waiting for
// the producer. On error, Stripes counts the work completed before the
// pool shut down — the cancellation guarantee is that no stripe starts
// processing after the first error is raised.
type Report struct {
	Workers   int   // pool size actually used
	Stripes   int   // stripes successfully processed
	PerWorker []int // stripes processed by each worker (len == Workers)
	// QueueWait is the total time workers spent blocked on the work
	// queue waiting for a stripe they then received, summed over the
	// pool. High values relative to Elapsed*Workers mean the producer
	// or a straggler stripe is the bottleneck, not the pool.
	QueueWait time.Duration
	// ShutdownWait is the total time workers spent in their final wait —
	// blocked on the queue between finishing their last stripe and the
	// producer closing it — summed over the pool. It used to be folded
	// into QueueWait, inflating that metric by up to Workers×(producer
	// tail); it is pure teardown cost, not a dispatch bottleneck.
	ShutdownWait time.Duration
	Elapsed      time.Duration
}

// EncodeAll encodes every stripe with the given code, in parallel.
// Per-stripe XOR counts are accumulated into ops (which may be nil).
func EncodeAll(code core.Code, stripes []*core.Stripe, ops *core.Ops, cfg Config) error {
	_, err := EncodeAllReport(code, stripes, ops, cfg)
	return err
}

// EncodeAllReport is EncodeAll plus the pool's execution Report.
func EncodeAllReport(code core.Code, stripes []*core.Stripe, ops *core.Ops, cfg Config) (Report, error) {
	return forEach("pipeline.encode", stripes, cfg, ops, func(s *core.Stripe, o *core.Ops) error {
		return code.Encode(s, o)
	})
}

// DecodeAll reconstructs the same erased strips in every stripe, in
// parallel — the shape of a whole-disk rebuild.
func DecodeAll(code core.Code, stripes []*core.Stripe, erased []int, ops *core.Ops, cfg Config) error {
	_, err := DecodeAllReport(code, stripes, erased, ops, cfg)
	return err
}

// DecodeAllReport is DecodeAll plus the pool's execution Report.
func DecodeAllReport(code core.Code, stripes []*core.Stripe, erased []int, ops *core.Ops, cfg Config) (Report, error) {
	return forEach("pipeline.decode", stripes, cfg, ops, func(s *core.Stripe, o *core.Ops) error {
		return code.Decode(s, erased, o)
	})
}

// forEach fans the stripes out over the worker pool. Each worker keeps a
// private Ops and the totals are merged at the end, so counting adds no
// contention. The first error cancels the remaining work: the producer
// stops feeding and every worker skips (but keeps draining) whatever is
// already queued, so no stripe begins processing after the error.
func forEach(name string, stripes []*core.Stripe, cfg Config, ops *core.Ops,
	fn func(*core.Stripe, *core.Ops) error) (Report, error) {
	n := cfg.workers()
	if n > len(stripes) {
		n = len(stripes)
	}
	if n < 1 {
		n = 1
	}
	ctx := cfg.context()
	feed := func(work chan<- *core.Stripe, stop *atomic.Bool) {
		for _, s := range stripes {
			if stop.Load() || ctx.Err() != nil {
				return
			}
			work <- s
		}
	}
	return runPool(name, n, cfg, ops, feed, fn)
}

// runPool runs n workers over the stripes produced by feed, which sends
// on the work channel until it has no more stripes (or stop is set) and
// then returns; runPool closes the channel. Worker idle time is split
// into QueueWait (waits that ended with a stripe) and ShutdownWait (each
// worker's final wait, ended by the channel closing).
func runPool(name string, n int, cfg Config, ops *core.Ops,
	feed func(chan<- *core.Stripe, *atomic.Bool),
	fn func(*core.Stripe, *core.Ops) error) (Report, error) {
	start := time.Now()
	ctx := cfg.context()
	rep := Report{Workers: n, PerWorker: make([]int, n)}
	sp := obs.StartSpan(cfg.Registry, name)
	var total core.Ops
	bytes := 0
	// cancelled attributes one worker's early exit to the context's
	// typed cancellation cause (context.Canceled, DeadlineExceeded).
	cancelled := func(worker, done int) {
		cfg.Registry.Count(name+".cancelled", 1)
		obs.EmitErr(ctx, slog.LevelInfo, "pipeline.worker.cancel", ctx.Err(),
			slog.Int("worker", worker), slog.Int("stripes_done", done))
	}
	finish := func(err error) (Report, error) {
		if err == nil {
			err = ctx.Err()
		}
		rep.Elapsed = time.Since(start)
		ops.Add(total)
		sp.Bytes(bytes).Units(rep.Stripes).Ops(total).End(err)
		if cfg.Registry != nil {
			cfg.Registry.Observe(name+".queue_wait.seconds", obs.LatencyBuckets,
				rep.QueueWait.Seconds())
			cfg.Registry.Observe(name+".shutdown_wait.seconds", obs.LatencyBuckets,
				rep.ShutdownWait.Seconds())
			for w, c := range rep.PerWorker {
				// Per-worker children; the family aggregate keeps the bare
				// pipeline.worker.stripes distribution across all workers.
				cfg.Registry.ObserveWith("pipeline.worker.stripes", obs.SizeBuckets,
					float64(c), obs.Li("worker", w))
			}
		}
		if err != nil {
			return rep, fmt.Errorf("pipeline: %w", err)
		}
		return rep, nil
	}

	var stop atomic.Bool
	work := make(chan *core.Stripe)
	errCh := make(chan error, n)
	partial := make([]core.Ops, n)
	perWorker := rep.PerWorker
	waits := make([]time.Duration, n)
	tailWaits := make([]time.Duration, n)
	bytesW := make([]int, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			noted := false // cancellation attributed at most once per worker
			for {
				t0 := time.Now()
				s, ok := <-work
				if !ok {
					tailWaits[w] += time.Since(t0)
					if ctx.Err() != nil && !noted {
						cancelled(w, perWorker[w])
					}
					return
				}
				waits[w] += time.Since(t0)
				if ctx.Err() != nil {
					stop.Store(true)
					if !noted {
						noted = true
						cancelled(w, perWorker[w])
					}
					continue // drain so the producer never blocks
				}
				if stop.Load() {
					continue // drain so the producer never blocks
				}
				if err := fn(s, &partial[w]); err != nil {
					stop.Store(true)
					obs.EmitErr(ctx, slog.LevelError, "pipeline.worker.error", err,
						slog.Int("worker", w), slog.Int("stripes_done", perWorker[w]))
					select {
					case errCh <- err:
					default:
					}
					continue
				}
				perWorker[w]++
				bytesW[w] += s.DataSize()
			}
		}(w)
	}
	feed(work, &stop)
	close(work)
	wg.Wait()
	for w := range partial {
		total.Add(partial[w])
		rep.Stripes += perWorker[w]
		rep.QueueWait += waits[w]
		rep.ShutdownWait += tailWaits[w]
		bytes += bytesW[w]
	}
	select {
	case err := <-errCh:
		return finish(err)
	default:
	}
	return finish(nil)
}

// SplitBuffer carves a contiguous data buffer into stripes for the given
// code and element size, copying the data into the stripes' data strips.
// The final stripe is zero-padded. It is the standard preparation step
// for EncodeAll over a large write.
//
// The stripes come from the process-wide stripe pool
// (core.SharedStripePool); callers that are done with them can hand them
// back via ReleaseStripes so steady-state bulk traffic allocates nothing
// per stripe. Releasing is optional — unreleased stripes are ordinary
// garbage.
func SplitBuffer(code core.Code, elemSize int, data []byte) []*core.Stripe {
	k, w := code.K(), code.W()
	pool := core.SharedStripePool(k, code.M(), w, elemSize)
	perStripe := k * w * elemSize
	n := (len(data) + perStripe - 1) / perStripe
	if n == 0 {
		n = 1
	}
	stripes := make([]*core.Stripe, n)
	for i := range stripes {
		s := pool.Get()
		off := i * perStripe
		for t := 0; t < k; t++ {
			lo := off + t*w*elemSize
			if lo >= len(data) {
				break
			}
			copy(s.Strips[t], data[lo:])
		}
		stripes[i] = s
	}
	return stripes
}

// ReleaseStripes returns stripes (e.g. from SplitBuffer) to the shared
// stripe pool. The caller must not touch them afterwards.
func ReleaseStripes(stripes []*core.Stripe) {
	for _, s := range stripes {
		if s != nil {
			core.SharedStripePool(s.K, s.M(), s.W, s.ElemSize).Put(s)
		}
	}
}
