package shard

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ringDepth is the number of batches in a stream's ring: at steady
// state the I/O, code and output stages each own one.
const ringDepth = 3

// batch is one unit of a ring: n stripes starting at stream stripe
// first, owned by one stage at a time.
type batch struct {
	stripes  []*core.Stripe
	n, first int
	// err is the batch's code or output failure; the stages behind it
	// skip every later batch.
	err error
}

// ringStages are one stream's share of the ring: what each stage does
// to a batch.
type ringStages struct {
	// fill loads the batch's stripes; it runs on the I/O stage (the
	// calling goroutine).
	fill func(stripes []*core.Stripe) error
	// step codes the batch in place on the code stage; first is the
	// stream index of stripes[0].
	step func(stripes []*core.Stripe, first int) error
	// out hands the coded batch on: on its own output stage, or — when
	// outOnIO is set because out issues store calls (repair) — on the
	// I/O stage, just before the batch's slot is refilled.
	out     func(stripes []*core.Stripe) error
	outOnIO bool
}

// runRing streams total stripes, batchN at a time, through the batch
// ring every shard stream (encode, decode, repair) runs on. Three
// stages hand a fixed ring of ringDepth batches from pool around:
//
//   - the I/O stage (this goroutine) fills batch N once batch
//     N-ringDepth has left the ring, first running that batch's out
//     when outOnIO is set;
//   - the code stage runs step;
//   - the output stage runs out, unless outOnIO.
//
// The I/O stage issues its calls in a fixed program order whatever the
// other stages' timing, so a stream whose store calls all sit on one
// stage keeps a deterministic call sequence. Batches leave the ring in
// stream order and each stage stops working after a failed batch, so
// the stream fails with the error of the earliest failing batch, as a
// serial loop would; a fill failure, or ctx being cancelled before a
// fill, comes after every batch still in flight.
func runRing(ctx context.Context, clk ringClock, pool *core.StripePool, total, batchN int, s ringStages) error {
	batchN = max(1, min(batchN, total))
	ring := make([]*batch, ringDepth)
	for i := range ring {
		ring[i] = &batch{stripes: make([]*core.Stripe, batchN)}
		for j := range ring[i].stripes {
			ring[i].stripes[j] = pool.Get()
		}
	}
	defer func() {
		for _, b := range ring {
			for _, st := range b.stripes {
				pool.Put(st)
			}
		}
	}()

	// Channels hold the whole ring, so no send ever blocks.
	filled := make(chan *batch, ringDepth)
	coded := make(chan *batch, ringDepth)
	back := coded // batches returning to the I/O stage
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runStage(filled, coded, clk, "code.seconds", "code.wait.seconds", func(b *batch) error {
			return s.step(b.stripes[:b.n], b.first)
		})
	}()
	if !s.outOnIO {
		back = make(chan *batch, ringDepth)
		wg.Add(1)
		go func() {
			defer wg.Done()
			runStage(coded, back, clk, "write.seconds", "write.wait.seconds", func(b *batch) error {
				return s.out(b.stripes[:b.n])
			})
		}()
	}

	// err is the earliest batch failure seen.
	var err, fillErr error
	inFlight := 0
	settle := func() {
		t0 := clk.now()
		b := <-back
		if s.outOnIO {
			clk.observeStage("write.wait.seconds", t0) // waiting to write b
		} else {
			clk.observeStage("read.wait.seconds", t0) // waiting for a slot to fill
		}
		inFlight--
		if err != nil {
			return
		}
		if b.err == nil && s.outOnIO {
			t1 := clk.now()
			b.err = s.out(b.stripes[:b.n])
			clk.observeStage("write.seconds", t1)
		}
		err = b.err
	}
	for i, next := 0, 0; next < total; i++ {
		b := ring[i%ringDepth]
		if i >= ringDepth {
			settle() // b is the batch leaving the ring
			if err != nil {
				break
			}
		}
		if fillErr = ctx.Err(); fillErr != nil {
			break
		}
		b.n, b.first, b.err = min(batchN, total-next), next, nil
		t0 := clk.now()
		if fillErr = s.fill(b.stripes[:b.n]); fillErr != nil {
			break
		}
		clk.observeStage("read.seconds", t0)
		filled <- b
		inFlight++
		next += b.n
	}
	close(filled)
	for inFlight > 0 {
		settle()
	}
	wg.Wait()
	if err == nil {
		err = fillErr
	}
	return err
}

// runStage is a ring stage behind the I/O stage: it applies work to
// each batch from in, in stream order, and passes the batch on; after a
// failed batch it only forwards. It closes out once in is closed.
func runStage(in <-chan *batch, out chan<- *batch, clk ringClock,
	busy, wait string, work func(*batch) error) {
	defer close(out)
	failed := false
	for {
		t0 := clk.now()
		b, ok := <-in
		if !ok {
			return
		}
		clk.observeStage(wait, t0)
		if failed = failed || b.err != nil; !failed {
			t1 := clk.now()
			b.err = work(b)
			failed = b.err != nil
			clk.observeStage(busy, t1)
		}
		out <- b
	}
}

// ringClock times a ring's stages into the shard.<op>.<stage>
// histograms (op = encode, decode or repair). With a nil registry it
// takes no clock reads.
type ringClock struct {
	reg *obs.Registry
	op  string
}

func (c ringClock) now() time.Time {
	if c.reg == nil {
		return time.Time{}
	}
	return time.Now()
}

// observeStage records the time since t0 under the stage's histogram.
func (c ringClock) observeStage(stage string, t0 time.Time) {
	if c.reg == nil {
		return
	}
	d := time.Since(t0).Seconds()
	// One literal prefix per op keeps every name resolvable by
	// cmd/metriclint.
	switch c.op {
	case "encode":
		c.reg.Observe("shard.encode."+stage, obs.LatencyBuckets, d)
	case "repair":
		c.reg.Observe("shard.repair."+stage, obs.LatencyBuckets, d)
	default:
		c.reg.Observe("shard.decode."+stage, obs.LatencyBuckets, d)
	}
}
