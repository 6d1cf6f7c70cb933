package raidsim

import (
	"fmt"

	"repro/internal/core"
)

// Read copies len(p) data bytes starting at logical offset off into p.
// Stripes touched by failed disks are served through reconstruction
// (degraded reads) without modifying the array.
func (a *Array) Read(off int, p []byte) error {
	if off < 0 || off+len(p) > a.Capacity() {
		return ErrOutOfRange
	}
	if a.numFailed() > a.m {
		return ErrTooManyFailures
	}
	sp, total := a.span("raid.read"), len(p)
	defer func() { sp.end(a, total, nil) }()
	for len(p) > 0 {
		stripe, strip, row, inElem := a.locate(off)
		stripData := a.stripData(stripe)
		pos := strip*a.w*a.elemSize + row*a.elemSize + inElem
		n := copy(p, stripData[pos:])
		p = p[n:]
		off += n
	}
	return nil
}

// stripData returns the stripe's data region as one contiguous-looking
// slice; if any strip of the stripe lives on a failed disk, the stripe is
// reconstructed into scratch first.
func (a *Array) stripData(stripe int) []byte {
	erased := a.failedStrips(stripe)
	out := make([]byte, a.k*a.w*a.elemSize)
	if len(erased) == 0 {
		for t := 0; t < a.k; t++ {
			copy(out[t*a.w*a.elemSize:], a.strip(stripe, t))
		}
		return out
	}
	// Degraded: reconstruct into a scratch stripe.
	a.Stats.DegradedReads++
	a.count("raid.degraded_reads", 1)
	scratch := core.NewStripeM(a.k, a.m, a.w, a.elemSize)
	for t := 0; t < a.n; t++ {
		copy(scratch.Strips[t], a.strip(stripe, t))
	}
	if err := a.code.Decode(scratch, erased, &a.Stats.Ops); err != nil {
		panic(fmt.Sprintf("raidsim: degraded read of stripe %d: %v", stripe, err))
	}
	for t := 0; t < a.k; t++ {
		copy(out[t*a.w*a.elemSize:], scratch.Strips[t])
	}
	return out
}

// Write stores len(p) data bytes at logical offset off, maintaining
// parity. Full-stripe spans are re-encoded (one StripeEncode); partial
// spans become element-granularity small writes, using the code's
// incremental Update when available. Writing to an array with failed
// disks re-encodes the affected stripes (write-degraded mode).
func (a *Array) Write(off int, p []byte) error {
	if off < 0 || off+len(p) > a.Capacity() {
		return ErrOutOfRange
	}
	sp, total := a.span("raid.write"), len(p)
	if a.numFailed() > 0 {
		err := a.writeDegraded(off, p)
		sp.end(a, total, err)
		return err
	}
	var err error
	defer func() { sp.end(a, total, err) }()
	perStripe := a.k * a.w * a.elemSize
	for len(p) > 0 {
		stripe := off / perStripe
		stripeOff := off % perStripe
		n := perStripe - stripeOff
		if n > len(p) {
			n = len(p)
		}
		if stripeOff == 0 && n == perStripe {
			a.writeFullStripe(stripe, p[:n])
		} else if err = a.writePartial(stripe, stripeOff, p[:n]); err != nil {
			return err
		}
		p = p[n:]
		off += n
	}
	return nil
}

func (a *Array) writeFullStripe(stripe int, data []byte) {
	for t := 0; t < a.k; t++ {
		copy(a.strip(stripe, t), data[t*a.w*a.elemSize:])
	}
	if err := a.code.Encode(a.view(stripe), &a.Stats.Ops); err != nil {
		panic(fmt.Sprintf("raidsim: encode stripe %d: %v", stripe, err))
	}
	a.Stats.StripeEncodes++
	a.count("raid.stripe_encodes", 1)
}

// writePartial performs element-granularity read-modify-writes within one
// stripe.
func (a *Array) writePartial(stripe, stripeOff int, data []byte) error {
	view := a.view(stripe)
	old := make([]byte, a.elemSize)
	for len(data) > 0 {
		strip := stripeOff / (a.w * a.elemSize)
		rem := stripeOff % (a.w * a.elemSize)
		row := rem / a.elemSize
		inElem := rem % a.elemSize
		n := a.elemSize - inElem
		if n > len(data) {
			n = len(data)
		}
		elem := view.Elem(strip, row)
		copy(old, elem)
		copy(elem[inElem:], data[:n])
		a.Stats.SmallWrites++
		a.count("raid.small_writes", 1)
		if a.updater != nil {
			touched, err := a.updater.Update(view, strip, row, old, &a.Stats.Ops)
			if err != nil {
				return err
			}
			a.Stats.ParityElemWrites += uint64(touched)
			a.count("raid.parity_elem_writes", uint64(touched))
		} else {
			if err := a.code.Encode(view, &a.Stats.Ops); err != nil {
				return err
			}
			a.Stats.StripeEncodes++
			a.count("raid.stripe_encodes", 1)
			a.Stats.ParityElemWrites += uint64(a.m * a.w)
			a.count("raid.parity_elem_writes", uint64(a.m*a.w))
		}
		data = data[n:]
		stripeOff += n
	}
	return nil
}

// writeDegraded handles writes while disks are failed: affected stripes
// are reconstructed, patched, and re-encoded; strips on failed disks are
// left untouched (they will be rebuilt when the disk is replaced).
func (a *Array) writeDegraded(off int, p []byte) error {
	perStripe := a.k * a.w * a.elemSize
	for len(p) > 0 {
		stripe := off / perStripe
		stripeOff := off % perStripe
		n := perStripe - stripeOff
		if n > len(p) {
			n = len(p)
		}
		erased := a.failedStrips(stripe)
		scratch := core.NewStripeM(a.k, a.m, a.w, a.elemSize)
		for t := 0; t < a.n; t++ {
			copy(scratch.Strips[t], a.strip(stripe, t))
		}
		if len(erased) > 0 {
			if err := a.code.Decode(scratch, erased, &a.Stats.Ops); err != nil {
				return fmt.Errorf("raidsim: degraded write stripe %d: %w", stripe, err)
			}
			a.Stats.DegradedReads++
			a.count("raid.degraded_reads", 1)
		}
		// Patch the data region and re-encode.
		for i := 0; i < n; i++ {
			pos := stripeOff + i
			strip := pos / (a.w * a.elemSize)
			scratch.Strips[strip][pos%(a.w*a.elemSize)] = p[i]
		}
		if err := a.code.Encode(scratch, &a.Stats.Ops); err != nil {
			return err
		}
		a.Stats.StripeEncodes++
		a.count("raid.stripe_encodes", 1)
		for t := 0; t < a.n; t++ {
			if !a.failed[a.diskFor(stripe, t)] {
				copy(a.strip(stripe, t), scratch.Strips[t])
			}
		}
		p = p[n:]
		off += n
	}
	return nil
}

// CorruptDisk flips bytes of a healthy disk in place — the silent data
// corruption that scrubbing exists to catch. Test/demo hook.
func (a *Array) CorruptDisk(d, off, n int, mask byte) error {
	if d < 0 || d >= a.n || a.failed[d] {
		return fmt.Errorf("%w: disk %d", ErrDiskState, d)
	}
	if off < 0 || off+n > len(a.disks[d]) {
		return ErrOutOfRange
	}
	for i := 0; i < n; i++ {
		a.disks[d][off+i] ^= mask
	}
	return nil
}

// ScrubResult reports one stripe repair.
type ScrubResult struct {
	Stripe int
	Disk   int
	Strip  int // logical strip index that was repaired
}

// Scrub verifies every stripe and repairs single-strip corruption when
// the code supports localization (the core.ColumnCorrector capability,
// i.e. the paper's single-column error correction). It returns the
// repairs made; stripes whose corruption cannot be localized are
// reported with Strip == -1 and left untouched.
func (a *Array) Scrub() ([]ScrubResult, error) {
	if a.numFailed() > 0 {
		return nil, fmt.Errorf("%w: scrub requires all disks online", ErrDiskState)
	}
	sp := a.span("raid.scrub")
	var results []ScrubResult
	var scrubErr error
	defer func() { sp.end(a, a.stripes*a.k*a.w*a.elemSize, scrubErr) }()
	for stripe := 0; stripe < a.stripes; stripe++ {
		view := a.view(stripe)
		if a.corrector != nil {
			col, err := a.corrector.CorrectColumn(view, &a.Stats.Ops)
			if err != nil {
				results = append(results, ScrubResult{Stripe: stripe, Disk: -1, Strip: -1})
				continue
			}
			if col != core.CleanColumn {
				a.Stats.ScrubRepairs++
				disk := a.diskFor(stripe, col)
				a.countDisk("raid.scrub.repairs", disk, 1)
				results = append(results, ScrubResult{
					Stripe: stripe, Disk: disk, Strip: col})
			}
			continue
		}
		// Generic codes: detect by re-encoding into scratch and comparing.
		scratch := view.Clone()
		if err := a.code.Encode(scratch, &a.Stats.Ops); err != nil {
			scrubErr = err
			return results, err
		}
		clean := true
		for t := a.k; t < a.n; t++ {
			if string(scratch.Strips[t]) != string(view.Strips[t]) {
				clean = false
			}
		}
		if !clean {
			results = append(results, ScrubResult{Stripe: stripe, Disk: -1, Strip: -1})
		}
	}
	return results, nil
}
