package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/shard"
	"repro/internal/xorblk"
)

// layerShape is the code geometry a workload runs, for the standalone
// code, pipeline and kernel measurements.
type layerShape struct {
	code    string
	k, p    int
	elem    int
	workers int
	lost    []int // erased columns for the decode measurement
}

// layerBatch is the batch of stripes the standalone calls work on: the
// batch shard hands its coding stage.
const layerBatch = shard.DefaultBatchStripes

// measure runs round until budget has passed (at least three times) and
// returns the median rate, in units of work per second, normalized by
// the host probes taken before and after.
func measure(rec *recorder, budget time.Duration, work float64, round func()) float64 {
	speed := rec.quietSpeed()
	var rates []float64
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		round()
		rates = append(rates, work/time.Since(t0).Seconds())
	}
	return median(rates) / speed.mean(rec.quietSpeed()).factor()
}

// layerPass measures the code, pipeline and xorblk layers alone on sh
// and checks their outputs. Exact XOR counts are per stripe. Failures
// are tallied in rec.
func layerPass(sh layerShape, seed uint64, budget time.Duration, rec *recorder) (map[string]float64, error) {
	code, err := codes.New(sh.code, sh.k, sh.p)
	if err != nil {
		return nil, err
	}
	return codeLayerPass(code, sh, seed, budget, rec)
}

// codeLayerPass is layerPass on a constructed code. Every checked call
// first erases what it must rebuild, so a call that writes nothing fails
// its check.
func codeLayerPass(code core.Code, sh layerShape, seed uint64, budget time.Duration, rec *recorder) (map[string]float64, error) {
	r := newRand(seed, streamLayers)
	stripes := make([]*core.Stripe, layerBatch)
	for i := range stripes {
		stripes[i] = core.NewStripeFor(code, sh.elem)
		for t := 0; t < sh.k; t++ {
			fillRandom(r, stripes[i].Strips[t])
		}
	}
	dataBytes := float64(layerBatch * stripes[0].DataSize())
	out := map[string]float64{}
	var ops core.Ops

	// Encode: exact count on one stripe, then rate over the batch.
	if err := code.Encode(stripes[0], &ops); err != nil {
		return nil, err
	}
	out["codes.encode_xors_per_stripe"] = float64(ops.XORs)
	if sh.code == "liberation" {
		// The paper's bound, met with equality: 2p(k-1) XORs per stripe.
		want := uint64(2 * sh.p * (sh.k - 1))
		var err error
		if ops.XORs != want {
			err = fmt.Errorf("liberation encode: %d XORs per stripe, want 2p(k-1) = %d", ops.XORs, want)
		}
		rec.result(err)
	}
	out["codes.encode_GBps"] = measure(rec, budget, dataBytes, func() {
		for _, s := range stripes {
			code.Encode(s, nil)
		}
	}) / 1e9
	refs := make([]*core.Stripe, len(stripes))
	for i, s := range stripes {
		refs[i] = s.Clone()
	}

	// Decode the workload's loss set, erased first in every stripe: the
	// counted call rebuilds stripe 0, the first measured round the rest.
	for _, s := range stripes {
		for _, c := range sh.lost {
			s.ZeroStrip(c)
		}
	}
	ops = core.Ops{}
	if err := code.Decode(stripes[0], sh.lost, &ops); err != nil {
		return nil, err
	}
	out["codes.decode_xors_per_stripe"] = float64(ops.XORs)
	rec.result(sameStripe("decode", stripes[0], refs[0]))
	out["codes.decode_GBps"] = measure(rec, budget, dataBytes, func() {
		for _, s := range stripes {
			code.Decode(s, sh.lost, nil)
		}
	}) / 1e9
	rec.result(sameStripes("decode", stripes, refs))

	// Single-column correction of one seeded corruption per stripe.
	if cc, ok := code.(core.ColumnCorrector); ok {
		type site struct{ col, off int }
		sites := make([]site, len(stripes))
		for i := range sites {
			sites[i] = site{r.IntN(len(stripes[i].Strips)), r.IntN(len(stripes[i].Strips[0]))}
		}
		var wrong error
		out["codes.correct_GBps"] = measure(rec, budget, dataBytes, func() {
			for i, s := range stripes {
				s.Strips[sites[i].col][sites[i].off] ^= 0x5a
				col, err := cc.CorrectColumn(s, nil)
				if wrong == nil && (err != nil || col != sites[i].col) {
					wrong = fmt.Errorf("correct: stripe %d corrupted in column %d, got column %d (%v)",
						i, sites[i].col, col, err)
				}
			}
		}) / 1e9
		if wrong == nil {
			wrong = sameStripes("correct", stripes, refs)
		}
		rec.result(wrong)
	}

	// Small-write parity update of seeded elements.
	if u, ok := code.(core.Updater); ok {
		s := stripes[1]
		const calls = 256
		type pos struct{ col, row int }
		at := make([]pos, calls)
		for i := range at {
			at[i] = pos{r.IntN(sh.k), r.IntN(code.W())}
		}
		old := make([]byte, sh.elem)
		perSec := measure(rec, budget, calls, func() {
			for i, p := range at {
				e := s.Elem(p.col, p.row)
				copy(old, e)
				copy(e, stripes[2+i%8].Strips[0][:sh.elem])
				u.Update(s, p.col, p.row, old, nil)
			}
		})
		out["codes.update_ns"] = 1e9 / perSec
		check := s.Clone()
		if err := code.Encode(check, nil); err != nil {
			return nil, err
		}
		rec.result(sameStripe("update", s, check))
		refs[1] = check // the updated data with its freshly encoded parity
	}

	// The worker pool over the batch, with the workload's worker count,
	// on stripes whose parity is erased before the first run.
	for _, s := range stripes {
		for c := code.K(); c < code.K()+code.M(); c++ {
			s.ZeroStrip(c)
		}
	}
	var rates, waits []float64
	speed := rec.quietSpeed()
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < budget {
		rep, err := pipeline.EncodeAllReport(code, stripes, nil, pipeline.Config{Workers: sh.workers})
		if err != nil {
			return nil, err
		}
		rates = append(rates, dataBytes/rep.Elapsed.Seconds()/1e9)
		waits = append(waits, rep.QueueWait.Seconds()/(rep.Elapsed.Seconds()*float64(rep.Workers)))
	}
	out["pipeline.encode_GBps"] = median(rates) / speed.mean(rec.quietSpeed()).factor()
	out["pipeline.queue_wait_frac"] = median(waits)
	rec.result(sameStripes("pipeline encode", stripes, refs))

	// The XOR kernels on one 4 KiB element, counted in source bytes.
	const kernelCalls = 256
	e := make([][]byte, 5)
	for i := range e {
		e[i] = make([]byte, 4096)
		fillRandom(r, e[i])
	}
	out["xorblk.xorinto_GBps"] = measure(rec, budget, kernelCalls*4096, func() {
		for i := 0; i < kernelCalls; i++ {
			xorblk.XorInto(e[0], e[1])
		}
	}) / 1e9
	out["xorblk.xorinto4_GBps"] = measure(rec, budget, kernelCalls*4*4096, func() {
		for i := 0; i < kernelCalls; i++ {
			xorblk.XorInto4(e[0], e[1], e[2], e[3], e[4])
		}
	}) / 1e9
	return out, nil
}

// sameStripes reports whether every stripe of got holds its reference's
// strips.
func sameStripes(what string, got, want []*core.Stripe) error {
	for i := range want {
		if err := sameStripe(fmt.Sprintf("%s, stripe %d", what, i), got[i], want[i]); err != nil {
			return err
		}
	}
	return nil
}

// sameStripe reports whether got holds exactly want's strips.
func sameStripe(what string, got, want *core.Stripe) error {
	for i := range want.Strips {
		if !bytes.Equal(got.Strips[i], want.Strips[i]) {
			return fmt.Errorf("%s: strip %d differs from the reference", what, i)
		}
	}
	return nil
}
