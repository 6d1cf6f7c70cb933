package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/codes"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/store"
)

// streamConfig is one file-streaming workload: a file of fileBytes
// encoded with code (k, p, elem) and pushed through shard's entry points.
type streamConfig struct {
	code       string
	k, p       int
	elem       int
	fileBytes  int
	workers    int // shard.Options.Workers
	dataLost   int // data shards lost before the degraded decode
	parityLost int // parity shards lost with them
	// spanPrefix names the code's own spans (liberation.*, rsm.*), read
	// from Options.Registry for the in-situ code time.
	spanPrefix string
	// flipOutput makes the first clean decode's sink see one byte of the
	// output flipped, so tests can prove the check catches it.
	flipOutput bool
}

// streamBench is a set-up stream workload: the seeded file, the seeded
// loss set, and the directory the shard set lives in.
type streamBench struct {
	cfg     streamConfig
	dir     string
	payload []byte
	// losses are the shard sets removed before the degraded decode, one
	// per pass in turn: data shards drawn from the seed, the lost parities
	// rotating over all m, so every run mixes the decode's cost classes
	// alike whatever the seed.
	losses [][]int
	passes int
	// shardBytes is the size of one shard file, the unit of repair work.
	shardBytes int64
	flipped    bool
}

func newStreamBench(cfg streamConfig, seed uint64, dir string) (*streamBench, error) {
	code, err := codes.New(cfg.code, cfg.k, cfg.p)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	payload := make([]byte, cfg.fileBytes)
	fillRandom(newRand(seed, streamPayload), payload)
	r := newRand(seed, streamLoss)
	losses := make([][]int, lossSets)
	for i := range losses {
		lost := pickDistinct(r, cfg.dataLost, 0, cfg.k)
		for j := 0; j < cfg.parityLost; j++ {
			lost = append(lost, cfg.k+(i+j)%code.M())
		}
		sort.Ints(lost)
		losses[i] = lost
	}
	perStripe := int64(cfg.k * code.W() * cfg.elem)
	stripes := (int64(cfg.fileBytes) + perStripe - 1) / perStripe
	return &streamBench{cfg: cfg, dir: dir, payload: payload, losses: losses,
		shardBytes: stripes * int64(code.W()*cfg.elem)}, nil
}

// lossSets is the length of the loss-set cycle; a multiple of every m.
const lossSets = 6

func (b *streamBench) close() { os.RemoveAll(b.dir) }

// rebuiltBytes is the shard bytes one repair writes.
func (b *streamBench) rebuiltBytes() float64 {
	return float64(int64(b.cfg.dataLost+b.cfg.parityLost) * b.shardBytes)
}

func (b *streamBench) manifestPath() string {
	return filepath.Join(b.dir, shard.ManifestName("file.bin"))
}

// opRun is the per-call state handed to one shard call: its options
// (with the counting store), its trace and the time spent in the
// benchmark's own source or sink wrapper.
type opRun struct {
	opt  shard.Options
	tr   *opTrace
	io   *ioCounts
	edge atomic.Int64 // ns
}

// sourceReader feeds the seeded file to EncodeOpts.
type sourceReader struct {
	r   *bytes.Reader
	run *opRun
}

func (s *sourceReader) Read(p []byte) (int, error) {
	t0 := s.run.tr.now()
	n, err := s.r.Read(p)
	s.run.edge.Add(int64(s.run.tr.child("source.read", t0)))
	return n, err
}

// compareSink receives a decode's output and compares it, as it
// streams, with the seeded file: no copy of the output is kept and no
// hash is computed.
type compareSink struct {
	want   []byte
	off    int
	bad    int // first offset of a mismatching write, -1 if none
	flipAt int // test hook: offset of an output byte to flip, -1 for none
	run    *opRun
}

func newCompareSink(want []byte, run *opRun) *compareSink {
	return &compareSink{want: want, bad: -1, flipAt: -1, run: run}
}

func (s *compareSink) Write(p []byte) (int, error) {
	t0 := s.run.tr.now()
	got := p
	if s.flipAt >= s.off && s.flipAt < s.off+len(p) {
		got = append([]byte(nil), p...)
		got[s.flipAt-s.off] ^= 0x01
	}
	end := s.off + len(got)
	if s.bad < 0 && (end > len(s.want) || !bytes.Equal(got, s.want[s.off:end])) {
		s.bad = s.off
	}
	s.off = end
	s.run.edge.Add(int64(s.run.tr.child("sink.write", t0)))
	return len(p), nil
}

func (s *compareSink) check() error {
	if s.bad >= 0 {
		return fmt.Errorf("decoded output differs from the source in the write at byte %d", s.bad)
	}
	if s.off != len(s.want) {
		return fmt.Errorf("decoded %d bytes, source has %d", s.off, len(s.want))
	}
	return nil
}

// pass runs encode → clean decode → lose shards → degraded decode →
// repair → verify, checking every output. A failed step fails the
// steps that depend on it.
func (b *streamBench) pass(rec *recorder, log *spanLog) {
	size := len(b.payload)

	err := b.op(rec, log, "encode", func(run *opRun) error {
		run.opt.Code = b.cfg.code
		src := &sourceReader{r: bytes.NewReader(b.payload), run: run}
		_, err := shard.EncodeOpts(src, int64(size), "file.bin", b.cfg.k, b.cfg.p, b.cfg.elem, b.dir, run.opt)
		return err
	}, nil)
	if err != nil {
		return
	}

	b.decode(rec, log, "decode", false)

	lost := b.losses[b.passes%len(b.losses)]
	b.passes++
	for _, i := range lost {
		if err := os.Remove(filepath.Join(b.dir, shardName(b.cfg, i))); err != nil {
			rec.result(fmt.Errorf("losing shard %d: %w", i, err))
			return
		}
	}
	b.decode(rec, log, "degraded", true)

	var repaired []int
	b.op(rec, log, "repair", func(run *opRun) error {
		var err error
		repaired, err = shard.RepairOpts(b.manifestPath(), run.opt)
		return err
	}, func() error {
		if !slices.Equal(repaired, lost) {
			return fmt.Errorf("repair rebuilt shards %v, lost %v", repaired, lost)
		}
		return nil
	})

	// Verify is short, so it runs a few times for enough samples.
	for i := 0; i < verifyRounds; i++ {
		b.op(rec, log, "verify", func(run *opRun) error {
			if err := shard.Verify(b.manifestPath(), run.opt); err != nil {
				return fmt.Errorf("verify after repair: %w", err)
			}
			return nil
		}, nil)
	}
}

const verifyRounds = 3

func (b *streamBench) decode(rec *recorder, log *spanLog, op string, degraded bool) {
	var sink *compareSink
	var rep *shard.Report
	b.op(rec, log, op, func(run *opRun) error {
		sink = newCompareSink(b.payload, run)
		if b.cfg.flipOutput && !b.flipped {
			b.flipped = true
			sink.flipAt = len(b.payload) / 2
		}
		var err error
		rep, err = shard.DecodeReport(b.manifestPath(), sink, run.opt)
		return err
	}, func() error {
		if err := sink.check(); err != nil {
			return err
		}
		if rep.Degraded != degraded {
			return fmt.Errorf("decode reported degraded=%v, want %v", rep.Degraded, degraded)
		}
		return nil
	})
}

// op times one shard call, then checks its output, tallies it and, when
// it succeeded, records its samples under the op's name. In the traced
// run the call is a root span opened right before it and closed right
// after it, so the span holds the call and nothing of the benchmark's.
// A quiet point follows every call.
func (b *streamBench) op(rec *recorder, log *spanLog, name string,
	call func(*opRun) error, check func() error) error {
	run := &opRun{io: &ioCounts{}}
	var reg *obs.Registry
	if log != nil {
		reg = obs.NewRegistry()
		run.opt.Registry = reg
	}
	run.opt.Workers = b.cfg.workers
	rt0 := readRuntime()
	run.tr = log.start("shard." + name)
	run.opt.Store = &countingStore{inner: store.OS{}, c: run.io, tr: run.tr}
	t0 := time.Now()
	err := call(run)
	wall := time.Since(t0)
	var self time.Duration
	if run.tr != nil {
		wall, self = run.tr.finish()
	}
	rt := readRuntime().sub(rt0)
	defer rec.quiet()
	if err == nil && check != nil {
		err = check()
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	rec.result(err)
	if err != nil {
		return err
	}
	w := wall.Seconds()
	rec.addWork(w)
	rec.addRate(name+".MBps", float64(len(b.payload))/w/1e6)
	p := "store." + name + "."
	rec.add(p+"read_bytes", float64(run.io.readBytes.Load()))
	rec.add(p+"read_calls", float64(run.io.readCalls.Load()))
	rec.add(p+"write_bytes", float64(run.io.writeBytes.Load()))
	rec.add(p+"write_calls", float64(run.io.writeCalls.Load()))
	rec.add(p+"sync_calls", float64(run.io.syncCalls.Load()))
	rec.add(p+"open_calls", float64(run.io.openCalls.Load()))
	rec.add("runtime."+name+".alloc_bytes", float64(rt.allocBytes))
	rec.add("runtime."+name+".gc_cycles", float64(rt.gcCycles))
	if run.tr == nil {
		return nil
	}
	rec.add(p+"read_frac", nanos(&run.io.readTime).Seconds()/w)
	rec.add(p+"write_frac", nanos(&run.io.writeTime).Seconds()/w)
	rec.add(p+"sync_frac", nanos(&run.io.syncTime).Seconds()/w)
	rec.add("shard."+name+".self_frac", self.Seconds()/w)
	rec.add("shard."+name+".edge_frac", nanos(&run.edge).Seconds()/w)
	var insitu float64
	for spanName, st := range reg.Snapshot().Spans {
		if strings.HasPrefix(spanName, b.cfg.spanPrefix) {
			insitu += st.Latency.Sum
		}
	}
	rec.add("codes."+name+".insitu_frac", insitu/w)
	return nil
}

// shardName names shard i of the benchmark's file, as shard does.
func shardName(cfg streamConfig, i int) string {
	m := shard.Manifest{FileName: "file.bin", K: cfg.k}
	return m.ShardName(i)
}

func (b *streamBench) endToEnd(rec *recorder) map[string]float64 {
	return map[string]float64{
		"write_MBps":         rec.med("encode.MBps"),
		"read_MBps":          rec.med("decode.MBps"),
		"degraded_read_MBps": rec.med("degraded.MBps"),
		"rebuild_MBps":       rec.med("repair.MBps"),
		"scrub_MBps":         rec.med("verify.MBps"),
	}
}

func (b *streamBench) perLayer(rec *recorder) map[string]float64 {
	out := map[string]float64{}
	for _, op := range streamOps {
		for _, f := range []string{"read_bytes", "read_calls", "write_bytes", "write_calls",
			"sync_calls", "open_calls", "read_frac", "write_frac", "sync_frac"} {
			out["store."+op+"."+f] = rec.med("store." + op + "." + f)
		}
		out["shard."+op+".self_frac"] = rec.med("shard." + op + ".self_frac")
		out["codes."+op+".insitu_frac"] = rec.med("codes." + op + ".insitu_frac")
		out["runtime."+op+".alloc_bytes"] = rec.med("runtime." + op + ".alloc_bytes")
		out["runtime."+op+".gc_cycles"] = rec.med("runtime." + op + ".gc_cycles")
	}
	size := float64(len(b.payload))
	out["store.decode.read_amp"] = out["store.decode.read_bytes"] / size
	out["store.degraded.read_amp"] = out["store.degraded.read_bytes"] / size
	out["store.repair.read_amp"] = out["store.repair.read_bytes"] / b.rebuiltBytes()
	out["shard.encode.source_frac"] = rec.med("shard.encode.edge_frac")
	out["shard.decode.sink_frac"] = rec.med("shard.decode.edge_frac")
	return out
}

// report lists the workload's figures under the names the repository's
// issue tracker and ROADMAP use, for the human-readable output; the
// *_raw lines are the wall-clock rates before normalization.
func (b *streamBench) report(rec *recorder) []line {
	n := float64(len(rec.samples["encode.MBps"]))
	size := float64(len(b.payload))
	var lines []line
	for _, op := range []struct{ name, key string }{{"encode_MBps", "encode"}, {"decode_MBps", "decode"},
		{"degraded_decode_MBps", "degraded"}, {"repair_MBps", "repair"}, {"verify_MBps", "verify"}} {
		lines = append(lines, line{op.name, rec.med(op.key + ".MBps"), "MB/s", n},
			line{op.name + "_raw", rec.rawMed(op.key + ".MBps"), "MB/s", n})
	}
	return append(lines,
		line{"decode_read_amp", rec.med("store.decode.read_bytes") / size, "x", n},
		line{"repair_read_amp", rec.med("store.repair.read_bytes") / b.rebuiltBytes(), "x", n},
		line{"work_dir_on_tmpfs", boolValue(onTmpfs(b.dir)), "bool", 1})
}

func (b *streamBench) layers() layerShape {
	return layerShape{code: b.cfg.code, k: b.cfg.k, p: b.cfg.p, elem: b.cfg.elem,
		workers: b.cfg.workers, lost: b.losses[0]}
}

// onTmpfs reports whether dir lives on tmpfs, where the program's
// fsyncs do no device I/O.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	return syscall.Statfs(dir, &st) == nil && st.Type == 0x01021994 // TMPFS_MAGIC
}

func boolValue(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
