package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/codes"
	"repro/internal/obs"
	"repro/internal/raidsim"
)

// arrayConfig is the small-I/O workload: an in-memory raidsim array
// driven by element-sized, Zipf-skewed requests.
type arrayConfig struct {
	code        string
	k, p        int
	elem        int
	stripes     int
	opsPerPhase int // requests in each healthy and each degraded phase
	// flipShadow flips one byte of the shadow copy at the first healthy
	// read's offset, so tests can prove the read check catches it.
	flipShadow bool
}

// errMismatch marks a read that differs from the shadow copy.
var errMismatch = errors.New("output mismatch")

type request struct {
	off   int
	write bool
	data  int // index into the write payload pool
}

type corruptSite struct {
	stripe, disk, off, n int
	mask                 byte
}

// arrayBench is a set-up array-oltp workload. shadow holds what the
// array's data must read back as; every write updates it.
type arrayBench struct {
	cfg               arrayConfig
	a                 *raidsim.Array
	shadow            []byte
	pool              [][]byte
	healthy, degraded []request
	failed            []int
	sites             [][]corruptSite // one group per scrub round
	buf, stripeBuf    []byte
	reg               *obs.Registry // attached while traced
	lastCPU           time.Duration
}

func newArrayBench(cfg arrayConfig, seed uint64) (*arrayBench, error) {
	code, err := codes.New(cfg.code, cfg.k, cfg.p)
	if err != nil {
		return nil, err
	}
	a, err := raidsim.New(code, cfg.elem, cfg.stripes)
	if err != nil {
		return nil, err
	}
	b := &arrayBench{cfg: cfg, a: a, shadow: make([]byte, a.Capacity()),
		buf: make([]byte, cfg.elem), stripeBuf: make([]byte, cfg.k*code.W()*cfg.elem)}
	fillRandom(newRand(seed, streamPayload), b.shadow)
	b.pool = make([][]byte, 64)
	for i := range b.pool {
		b.pool[i] = make([]byte, cfg.elem)
		fillRandom(newRand(seed, streamPayload+uint64(i+1)<<32), b.pool[i])
	}
	if err := a.Write(0, b.shadow); err != nil {
		return nil, fmt.Errorf("filling the array: %w", err)
	}

	r := newRand(seed, streamRequests)
	elems := a.Capacity() / cfg.elem
	// Zipf ranks map through a seeded permutation so the hot elements are
	// spread over the array instead of packed into its first stripe.
	perm := r.Perm(elems)
	zipf := rand.NewZipf(r, zipfS, 1, uint64(elems-1))
	gen := func() []request {
		reqs := make([]request, cfg.opsPerPhase)
		for i := range reqs {
			reqs[i] = request{off: perm[zipf.Uint64()] * cfg.elem,
				write: r.Float64() >= readFrac, data: r.IntN(len(b.pool))}
		}
		return reqs
	}
	b.healthy, b.degraded = gen(), gen()
	b.failed = pickDistinct(newRand(seed, streamLoss), code.M(), 0, a.NumDisks())

	cr := newRand(seed, streamCorrupt)
	stripBytes := code.W() * cfg.elem
	b.sites = make([][]corruptSite, scrubRounds)
	for g := range b.sites {
		for _, s := range pickDistinct(cr, corruptions, 0, cfg.stripes) {
			n := 1 + cr.IntN(16)
			row := cr.IntN(code.W())
			in := cr.IntN(cfg.elem - n + 1)
			b.sites[g] = append(b.sites[g], corruptSite{stripe: s, disk: cr.IntN(a.NumDisks()),
				off: s*stripBytes + row*cfg.elem + in, n: n, mask: byte(1 + cr.IntN(255))})
		}
	}
	if cfg.flipShadow {
		for _, q := range b.healthy {
			if !q.write {
				b.shadow[q.off] ^= 0x01
				break
			}
		}
	}
	return b, nil
}

func (b *arrayBench) close() {}

// call times one array call, as a root span when traced.
func (b *arrayBench) call(log *spanLog, name string, fn func() error) (time.Duration, error) {
	tr := log.start(name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if tr != nil {
		d, _ = tr.finish()
	}
	return d, err
}

// pass runs the healthy request mix, fails two disks, runs the mix
// degraded, rebuilds both disks (and fails and rebuilds them again),
// corrupts seeded sites and scrubs (a few rounds), then
// reads the whole array back against the shadow copy. A quiet point
// follows each request mix, each rebuild round and each scrub.
func (b *arrayBench) pass(rec *recorder, log *spanLog) {
	if (log != nil) != (b.reg != nil) {
		b.reg = nil
		if log != nil {
			b.reg = obs.NewRegistry()
		}
		b.a.Instrument(b.reg)
	}
	st := &b.a.Stats
	capMB := float64(b.a.Capacity()) / 1e6

	before := *st
	b.phase(rec, log, b.healthy, "")
	if small := st.SmallWrites - before.SmallWrites; small > 0 {
		rec.add("raidsim.xors_per_write", float64(st.Ops.XORs-before.Ops.XORs)/float64(small))
		rec.add("raidsim.write_amp", float64(small+st.ParityElemWrites-before.ParityElemWrites)/float64(small))
	}

	if !b.failDisks(rec) {
		return
	}
	before = *st
	b.phase(rec, log, b.degraded, "degraded_")
	rec.add("raidsim.degraded_reads", float64(st.DegradedReads-before.DegradedReads))

	// Rebuild both disks, then fail and rebuild them again for more
	// samples; one sample is the time to restore full redundancy.
	for round := 0; round < rebuildRounds; round++ {
		if round > 0 && !b.failDisks(rec) {
			return
		}
		before = *st
		var rebuild time.Duration
		for _, disk := range b.failed {
			d, err := b.call(log, "raidsim.replace_disk", func() error { return b.a.ReplaceDisk(disk) })
			rec.result(err)
			if err != nil {
				return
			}
			rebuild += d
		}
		rec.addWork(rebuild.Seconds())
		rec.addRate("rebuild.MBps", capMB/rebuild.Seconds())
		rec.quiet()
		rec.add("raidsim.stripes_rebuilt", float64(st.StripesRebuilt-before.StripesRebuilt))
		rec.add("raidsim.rebuild_xors", float64(st.Ops.XORs-before.Ops.XORs))
	}

	for _, sites := range b.sites {
		for _, s := range sites {
			if err := b.a.CorruptDisk(s.disk, s.off, s.n, s.mask); err != nil {
				rec.result(fmt.Errorf("corrupting disk %d: %w", s.disk, err))
				return
			}
		}
		before = *st
		var results []raidsim.ScrubResult
		d, err := b.call(log, "raidsim.scrub", func() error {
			var err error
			results, err = b.a.Scrub()
			return err
		})
		if err == nil {
			err = checkScrub(results, sites)
		}
		rec.result(err)
		if err != nil {
			return
		}
		rec.addWork(d.Seconds())
		rec.addRate("scrub.MBps", capMB/d.Seconds())
		rec.quiet()
		rec.add("raidsim.scrub_repairs", float64(st.ScrubRepairs-before.ScrubRepairs))
	}

	// The whole array must read back as the shadow copy.
	rec.result(b.readBack())
}

func (b *arrayBench) failDisks(rec *recorder) bool {
	for _, d := range b.failed {
		if err := b.a.FailDisk(d); err != nil {
			rec.result(fmt.Errorf("failing disk %d: %w", d, err))
			return false
		}
	}
	return true
}

// phase issues one request mix; latencies are recorded under
// prefix+"read.s" and prefix+"write.s", and a quiet point follows
// the mix. The traced run also attributes
// the runtime's allocation to each call.
func (b *arrayBench) phase(rec *recorder, log *spanLog, reqs []request, prefix string) {
	var alloc [2]uint64 // reads, writes
	var calls [2]int
	for _, q := range reqs {
		var rt0 runtimeCounts
		if log != nil {
			rt0 = readRuntime()
		}
		d, err := b.request(rec, log, q)
		kind := 0
		if q.write {
			kind = 1
		}
		if log != nil {
			alloc[kind] += readRuntime().sub(rt0).allocBytes
		}
		if err != nil {
			continue
		}
		calls[kind]++
		rec.addWork(d.Seconds())
		rec.addTime(prefix+[]string{"read.s", "write.s"}[kind], d.Seconds())
	}
	if log != nil && prefix == "" && calls[0] > 0 && calls[1] > 0 {
		rec.add("raidsim.read_alloc_bytes_per_op", float64(alloc[0])/float64(calls[0]))
		rec.add("raidsim.write_alloc_bytes_per_op", float64(alloc[1])/float64(calls[1]))
	}
	rec.quiet()
}

// request issues one 4 KiB read or write. A read is compared with the
// shadow copy; a write is applied to it.
func (b *arrayBench) request(rec *recorder, log *spanLog, q request) (time.Duration, error) {
	var d time.Duration
	var err error
	if q.write {
		data := b.pool[q.data]
		d, err = b.call(log, "raidsim.write", func() error { return b.a.Write(q.off, data) })
		if err == nil {
			copy(b.shadow[q.off:], data)
		}
	} else {
		d, err = b.call(log, "raidsim.read", func() error { return b.a.Read(q.off, b.buf) })
		if err == nil && !bytes.Equal(b.buf, b.shadow[q.off:q.off+len(b.buf)]) {
			err = fmt.Errorf("read at %d: %w", q.off, errMismatch)
		}
	}
	rec.result(err)
	return d, err
}

func checkScrub(results []raidsim.ScrubResult, sites []corruptSite) error {
	if len(results) != len(sites) {
		return fmt.Errorf("scrub repaired %d stripes, %d were corrupted", len(results), len(sites))
	}
	want := map[[2]int]bool{}
	for _, s := range sites {
		want[[2]int{s.stripe, s.disk}] = true
	}
	for _, r := range results {
		if !want[[2]int{r.Stripe, r.Disk}] {
			return fmt.Errorf("scrub repaired stripe %d on disk %d, which was not corrupted", r.Stripe, r.Disk)
		}
	}
	return nil
}

func (b *arrayBench) readBack() error {
	for off := 0; off < len(b.shadow); off += len(b.stripeBuf) {
		if err := b.a.Read(off, b.stripeBuf); err != nil {
			return fmt.Errorf("final read at %d: %w", off, err)
		}
		if !bytes.Equal(b.stripeBuf, b.shadow[off:off+len(b.stripeBuf)]) {
			return fmt.Errorf("final read at %d: %w", off, errMismatch)
		}
	}
	return nil
}

func (b *arrayBench) endToEnd(rec *recorder) map[string]float64 {
	perCall := func(key string) float64 { return float64(b.cfg.elem) / rec.med(key) / 1e6 }
	return map[string]float64{
		"write_MBps":         perCall("write.s"),
		"read_MBps":          perCall("read.s"),
		"degraded_read_MBps": perCall("degraded_read.s"),
		"rebuild_MBps":       rec.med("rebuild.MBps"),
		"scrub_MBps":         rec.med("scrub.MBps"),
	}
}

func (b *arrayBench) perLayer(rec *recorder) map[string]float64 {
	out := map[string]float64{}
	for _, k := range []string{"raidsim.xors_per_write", "raidsim.write_amp", "raidsim.degraded_reads",
		"raidsim.stripes_rebuilt", "raidsim.rebuild_xors", "raidsim.scrub_repairs",
		"raidsim.read_alloc_bytes_per_op", "raidsim.write_alloc_bytes_per_op"} {
		out[k] = rec.med(k)
	}
	return out
}

// report lists the issue's latency figures; the *_raw lines are the
// wall-clock figures before normalization.
func (b *arrayBench) report(rec *recorder) []line {
	us := func(key string, q float64) float64 { return percentile(rec.samples[key], q) * 1e6 }
	raw := func(key string, q float64) float64 { return percentile(rec.raw[key], q) * 1e6 }
	nr, nw := float64(len(rec.samples["read.s"])), float64(len(rec.samples["write.s"]))
	nd, np := float64(len(rec.samples["degraded_read.s"])), float64(len(rec.samples["rebuild.MBps"]))
	ns := float64(len(rec.samples["scrub.MBps"]))
	return []line{
		{"read_p50_us", us("read.s", 50), "us", nr},
		{"read_p50_us_raw", raw("read.s", 50), "us", nr},
		{"read_p99_us", us("read.s", 99), "us", nr},
		{"write_p50_us", us("write.s", 50), "us", nw},
		{"write_p50_us_raw", raw("write.s", 50), "us", nw},
		{"write_p99_us", us("write.s", 99), "us", nw},
		{"degraded_read_p50_us", us("degraded_read.s", 50), "us", nd},
		{"degraded_read_p50_us_raw", raw("degraded_read.s", 50), "us", nd},
		{"rebuild_MBps", rec.med("rebuild.MBps"), "MB/s", np},
		{"rebuild_MBps_raw", rec.rawMed("rebuild.MBps"), "MB/s", np},
		{"scrub_MBps", rec.med("scrub.MBps"), "MB/s", ns},
		{"scrub_MBps_raw", rec.rawMed("scrub.MBps"), "MB/s", ns},
	}
}

func (b *arrayBench) layers() layerShape {
	return layerShape{code: b.cfg.code, k: b.cfg.k, p: b.cfg.p, elem: b.cfg.elem,
		workers: 1, lost: dataColumns(b.failed, b.cfg.k)}
}

// dataColumns maps failed disk numbers to a loss set of the same size
// within the data columns, for the standalone decode measurement.
func dataColumns(failed []int, k int) []int {
	out := make([]int, 0, len(failed))
	seen := map[int]bool{}
	for _, d := range failed {
		c := d % k
		for seen[c] {
			c = (c + 1) % k
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}
