package shard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/store"
)

// Report summarizes one recovery run (decode or repair): the per-shard
// health, which shards were quarantined, how many stripes the
// single-column correction healed, and how many streaming attempts the
// self-healing loop needed.
type Report struct {
	// Status is the final per-shard health (from the last attempt's
	// probe, refined by mid-stream quarantines).
	Status []ShardStatus
	// Quarantined lists shards whose content was distrusted at any
	// point: checksum-corrupt at probe time or failed mid-stream.
	Quarantined []int
	// Corrections is the number of stripes healed by the paper's
	// single-column error correction.
	Corrections uint64
	// Attempts is the number of streaming passes (1 = no restart).
	Attempts int
	// Degraded reports whether recovery ran without full redundancy.
	Degraded bool
}

// DecodeReport reconstructs the original file from the shard set
// described by the manifest at manifestPath (shards are looked up in the
// same directory) and writes it to w. Missing or checksum-corrupt shards
// are treated per the degradation ladder (quarantine → CorrectColumn →
// erasure decode); up to m hard losses are tolerated (m being the code's
// parity count), and purely silent per-stripe single-column corruption
// is healed even beyond that. The report carries the per-shard status
// recovery observed.
//
// The up-front probe (stat + streamed CRC-32, O(1) memory) classifies
// every shard: clean, soft-quarantined (present but checksum-corrupt),
// or hard-erased (missing, truncated, unreadable). Recovery then picks a
// rung of the degradation ladder:
//
//   - no hard losses, but quarantined shards (or Options.Heal): stream
//     all k+m columns and run the paper's single-column error correction
//     per stripe, falling back to erasure-decoding the quarantined
//     columns for stripes whose corruption is not single-column;
//   - 1..m unusable shards: classic erasure decode of the survivors;
//   - more: a typed *UnrecoverableError naming every failed shard.
//
// While stripes stream, transient read errors are retried with capped
// exponential backoff (Options.Retry), and rolling CRCs re-verify every
// column end to end — a shard that fails mid-stream is quarantined and
// the decode restarts without it (when w is rewindable, i.e. an
// *os.File).
//
// Reading, coding and writing overlap: shard reads, the CRC and decode
// (or correction) work, and the writes to w run as three stages around
// the batch ring EncodeOpts uses too. All shard I/O stays on one
// goroutine in a fixed order, so seeded fault schedules replay exactly.
// A cancelled Options.Context stops the stream before the next batch is
// read. Peak memory is 3 × BatchStripes × stripe regardless of file
// size.
func DecodeReport(manifestPath string, w io.Writer, opt Options) (_ *Report, err error) {
	var m *Manifest
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, opt.Registry, "shard.decode",
		slog.String("manifest", filepath.Base(manifestPath)))
	defer func() {
		if m != nil {
			sp.Bytes(int(m.FileSize))
		}
		sp.End(err)
		stampFlight(ctx, err)
	}()
	st := opt.store(ctx)
	m, err = loadManifest(st, manifestPath)
	if err != nil {
		return nil, err
	}
	code, err := manifestCode(m, opt.Registry)
	if err != nil {
		return nil, err
	}
	countShardOp(opt.Registry, "decode", m.Code)

	r := newRecovery(m, code, opt, st, ctx, filepath.Dir(manifestPath))
	sink := &decodeSink{w: w, m: m}
	err = r.run(sink)
	return r.rep, err
}

// RepairOpts reconstructs missing or corrupt shards in place, writing
// repaired shard files back into the manifest's directory, and returns
// the indices repaired. It shares the probe, the degradation ladder, and
// the bounded-memory batch ring with DecodeReport, but routes the
// reconstructed strips into fresh shard files written next to the
// originals: each repaired shard streams into a temporary file (written
// by the ring's I/O stage, in a fixed slot after each read) whose
// rolling CRC must reproduce the manifest checksum before it is synced
// and renamed over the broken shard, so a failed repair never clobbers
// anything.
func RepairOpts(manifestPath string, opt Options) (_ []int, err error) {
	var m *Manifest
	ctx, sp := obs.StartOp(opt.context(), opt.Tracer, opt.Registry, "shard.repair",
		slog.String("manifest", filepath.Base(manifestPath)))
	defer func() {
		if m != nil {
			sp.Bytes(int(m.FileSize))
		}
		sp.End(err)
		stampFlight(ctx, err)
	}()
	st := opt.store(ctx)
	m, err = loadManifest(st, manifestPath)
	if err != nil {
		return nil, err
	}
	code, err := manifestCode(m, opt.Registry)
	if err != nil {
		return nil, err
	}
	countShardOp(opt.Registry, "repair", m.Code)

	dir := filepath.Dir(manifestPath)
	r := newRecovery(m, code, opt, st, ctx, dir)
	sink := &repairSink{m: m, st: st, dir: dir}
	if err = r.run(sink); err != nil {
		return nil, err
	}
	return sink.repaired, nil
}

// recovery drives the self-healing attempt loop shared by decode and
// repair.
type recovery struct {
	m    *Manifest
	code core.Code
	// corrector is the code's single-column error correction capability,
	// nil when the code does not provide one — the ladder then skips the
	// correction rung and goes straight to erasure decode.
	corrector core.ColumnCorrector
	opt       Options
	reg       *obs.Registry
	st        store.Store
	ctx       context.Context // carries the operation's trace
	dir       string

	rep     *Report
	forced  map[int]error // mid-stream quarantines, by column
	counted map[int]bool  // shard.quarantine.total dedup across attempts
}

// newRecovery wires up the attempt loop, discovering the code's
// correction capability by interface assertion rather than by name.
func newRecovery(m *Manifest, code core.Code, opt Options, st store.Store,
	ctx context.Context, dir string) *recovery {
	r := &recovery{m: m, code: code, opt: opt, reg: opt.Registry, st: st, ctx: ctx, dir: dir}
	r.corrector, _ = code.(core.ColumnCorrector)
	return r
}

// maxAttempts bounds the restart loop defensively; the quarantine budget
// (at most m hard erasures) terminates it much earlier in practice.
func (r *recovery) maxAttempts() int { return r.m.M + 3 }

// run executes probe → ladder → stream attempts until one succeeds, the
// quarantine budget is exhausted, or the error is not a mid-stream
// quarantine.
func (r *recovery) run(sink recoverSink) error {
	r.rep = &Report{}
	r.forced = make(map[int]error)
	r.counted = make(map[int]bool)
	defer sink.abort()
	for {
		r.rep.Attempts++
		actx, asp := obs.StartSpanCtx(r.ctx, r.reg, "shard.attempt",
			slog.Int("attempt", r.rep.Attempts))
		files, status, hard, soft := probeShards(actx, r.m, r.dir, r.st,
			nodeMapperOf(r.opt.Store), r.reg, r.forced)
		r.rep.Status = status
		r.noteQuarantines(actx, status)
		err := r.attempt(actx, files, status, hard, soft, sink)
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
		asp.End(err)
		if err == nil {
			if len(hard)+len(soft) > 0 {
				r.rep.Degraded = true
			}
			return nil
		}
		var q *quarantineError
		if !errors.As(err, &q) {
			if nodeFault(err) && sink.canRestart() && r.rep.Attempts < r.maxAttempts() {
				// A node went dark under the sink mid-stream: the temp a
				// shard was streaming into is unreachable. Restart the
				// attempt — begin recreates the temps and a placement-
				// aware store re-places them onto healthy spare nodes,
				// while the re-probe hard-erases the dead node's shards.
				r.reg.Count("shard.sink.restart.total", 1)
				obs.EmitErr(r.ctx, slog.LevelWarn, "shard.sink.restart", err,
					slog.Int("attempt", r.rep.Attempts))
				continue
			}
			return err
		}
		if r.rep.Attempts >= r.maxAttempts() {
			return &UnrecoverableError{Status: r.rep.Status,
				Reason: fmt.Sprintf("gave up after %d attempts: %v", r.rep.Attempts, q)}
		}
		if _, dup := r.forced[q.col]; dup {
			// The same column failed after already being excluded —
			// nothing left to heal with.
			return &UnrecoverableError{Status: r.rep.Status,
				Reason: fmt.Sprintf("shard %d failed repeatedly: %v", q.col, q.cause)}
		}
		r.forced[q.col] = q.cause
		obs.EmitErr(r.ctx, slog.LevelWarn, "shard.quarantine.midstream", q.cause,
			slog.Int("shard", q.col), slog.String("name", r.m.ShardName(q.col)),
			slog.Int("attempt", r.rep.Attempts))
	}
}

// noteQuarantines bills shard.quarantine.total once per shard across all
// attempts, records the report's quarantine list, and emits a
// shard.quarantine event per newly distrusted shard into the attempt's
// trace.
func (r *recovery) noteQuarantines(ctx context.Context, status []ShardStatus) {
	for _, st := range status {
		if st.State != StateCorrupt && st.State != StateQuarantined {
			continue
		}
		if r.counted[st.Index] {
			continue
		}
		r.counted[st.Index] = true
		r.rep.Quarantined = append(r.rep.Quarantined, st.Index)
		r.reg.Count("shard.quarantine.total", 1)
		obs.EmitErr(ctx, slog.LevelWarn, "shard.quarantine", st.Err,
			slog.Int("shard", st.Index), slog.String("name", st.Name),
			slog.String("state", st.State.String()))
	}
	sort.Ints(r.rep.Quarantined)
}

// attempt runs one rung of the degradation ladder over one streaming
// pass, recording which rung was chosen as a shard.rung event in the
// attempt's trace.
func (r *recovery) attempt(ctx context.Context, files []store.File, status []ShardStatus, hard, soft []int, sink recoverSink) error {
	if len(hard) > r.m.M {
		return &UnrecoverableError{Status: status,
			Reason: fmt.Sprintf("%d shards beyond repair, can tolerate %d", len(hard), r.m.M)}
	}
	if len(hard) == 0 && (len(soft) > 0 || r.opt.Heal) {
		// Correction-first — except that a sink that cannot rewind (a
		// plain io.Writer) must not gamble on a rung that may need a
		// quarantine restart when the plain erasure rung would do.
		if r.opt.Heal || len(soft) > r.m.M || sink.canRestart() {
			if r.corrector == nil {
				// The code cannot localize silent corruption: record why
				// the heal rung was skipped and drop to erasure decode.
				r.reg.Count("shard.rung.skip.total", 1)
				obs.Emit(ctx, slog.LevelInfo, "shard.rung.skip",
					slog.String("rung", "correction"),
					slog.String("reason", "code lacks column correction"),
					slog.String("code", r.code.Name()),
					slog.Int("suspects", len(soft)))
			} else {
				obs.Emit(ctx, slog.LevelInfo, "shard.rung",
					slog.String("rung", "correction"), slog.Int("suspects", len(soft)))
				return r.correctionStream(ctx, files, soft, sink)
			}
		}
	}
	erased := make([]int, 0, len(hard)+len(soft))
	erased = append(erased, hard...)
	erased = append(erased, soft...)
	sort.Ints(erased)
	if len(erased) > r.m.M {
		return &UnrecoverableError{Status: status,
			Reason: fmt.Sprintf("%d shards unusable, can tolerate %d", len(erased), r.m.M)}
	}
	obs.Emit(ctx, slog.LevelInfo, "shard.rung",
		slog.String("rung", "erasure"), slog.Int("erased", len(erased)))
	return r.erasureStream(ctx, files, erased, sink)
}

// erasureStream is the classic decode rung: the erased columns are
// reconstructed from the survivors, batch by batch, with rolling CRCs
// re-verifying every column (streamed and reconstructed) against the
// manifest at the end.
func (r *recovery) erasureStream(ctx context.Context, files []store.File, erased []int, sink recoverSink) error {
	m := r.m
	skip := make(map[int]bool, len(erased))
	for _, e := range erased {
		skip[e] = true
	}
	streamed := make([]int, 0, m.NumShards())
	for i := 0; i < m.NumShards(); i++ {
		if !skip[i] {
			streamed = append(streamed, i)
		}
	}
	g := rung{
		sumRead:  true,
		sumCoded: erased,
		step: func(stripes []*core.Stripe, _ int) error {
			if len(erased) == 0 {
				return nil
			}
			return decodeBatch(ctx, r.code, stripes, erased, r.opt)
		},
		verify: func(rolling []uint32) error {
			// Streamed columns first: a mismatch there means the shard
			// changed (or lied) while streaming and is grounds for
			// quarantine + restart.
			for _, i := range streamed {
				if rolling[i] != m.Checksums[i] {
					return &quarantineError{col: i, cause: fmt.Errorf(
						"shard %d (%s) changed while streaming: checksum %08x, manifest %08x",
						i, m.ShardName(i), rolling[i], m.Checksums[i])}
				}
			}
			// Reconstructed columns second: with all inputs verified, a
			// mismatch here cannot be pinned on any shard.
			for _, e := range erased {
				if rolling[e] != m.Checksums[e] {
					return &UnrecoverableError{Status: r.rep.Status, Reason: fmt.Sprintf(
						"reconstructed shard %d fails its manifest checksum", e)}
				}
			}
			return nil
		},
	}
	if len(erased) == 0 {
		// Nothing to reconstruct: rather than idle, the code stage
		// checksums the streamed columns and the I/O stage only reads.
		g.sumRead, g.sumCoded = false, streamed
	}
	return r.stream(newShardReaders(m, files, skip), erased, g, sink)
}

// correctionStream is the silent-corruption rung: all k+m columns stream
// (including soft-quarantined ones) and every stripe is checked — and
// healed — with the paper's single-column error correction. Stripes
// whose corruption is not confined to one column fall back to erasure-
// decoding the quarantined columns; rolling CRCs of the corrected
// columns must reproduce the manifest checksums at the end.
func (r *recovery) correctionStream(ctx context.Context, files []store.File, soft []int, sink recoverSink) error {
	m := r.m
	all := make([]int, m.NumShards())
	for i := range all {
		all[i] = i
	}
	return r.stream(newShardReaders(m, files, nil), soft, rung{
		sumCoded: all,
		step: func(stripes []*core.Stripe, first int) error {
			for j, s := range stripes {
				if err := r.correct(ctx, s, first+j, soft); err != nil {
					return err
				}
			}
			return nil
		},
		verify: func(rolling []uint32) error {
			// Post-correction columns must reproduce the manifest
			// exactly; a mismatch means the column misbehaved in a way
			// correction could not pin down — quarantine it and retry on
			// the erasure rung.
			for i, sum := range rolling {
				if sum != m.Checksums[i] {
					return &quarantineError{col: i, cause: fmt.Errorf(
						"shard %d (%s) still corrupt after correction: checksum %08x, manifest %08x",
						i, m.ShardName(i), sum, m.Checksums[i])}
				}
			}
			return nil
		},
	}, sink)
}

// correct checks and heals stripe number idx with the paper's single-
// column error correction, erasure-decoding the suspect columns when
// the corruption is not confined to one column.
func (r *recovery) correct(ctx context.Context, s *core.Stripe, idx int, soft []int) error {
	var cops core.Ops
	col, cerr := r.corrector.CorrectColumn(s, &cops)
	r.reg.Count("shard.correct_column.xors", cops.XORs)
	switch {
	case cerr == nil && col != core.CleanColumn:
		r.rep.Corrections++
		r.reg.Count("shard.correct_column.total", 1)
		obs.Emit(ctx, slog.LevelInfo, "shard.correct_column",
			slog.Int("stripe", idx), slog.Int("col", col))
	case cerr != nil:
		r.reg.Count("shard.correct_column.failed", 1)
		obs.EmitErr(ctx, slog.LevelWarn, "shard.correct_column.fallback", cerr,
			slog.Int("stripe", idx), slog.Int("suspects", len(soft)))
		switch {
		case len(soft) >= 1 && len(soft) <= r.m.M:
			// Not single-column, but we know which columns are suspect:
			// erasure-decode them for this stripe.
			return r.code.Decode(s, soft, nil)
		case len(soft) == 0:
			// Healing scan with no suspects: leave the stripe as read
			// and let the end-of-stream rolling CRCs quarantine
			// whichever column misbehaved.
		default:
			return &UnrecoverableError{Status: r.rep.Status, Reason: fmt.Sprintf(
				"stripe %d: corruption spans multiple columns and %d shards are quarantined",
				idx, len(soft))}
		}
	}
	return nil
}

// rung is one ladder rung's share of the stream: where the rolling
// CRCs are taken, the per-batch code step, and the end-of-stream
// verdict on the CRCs.
type rung struct {
	// sumRead makes the I/O stage checksum every streamed column as it
	// reads it; sumCoded lists the columns the code stage checksums
	// after the step.
	sumRead  bool
	sumCoded []int
	// step decodes or corrects the stripes of one batch in place; first
	// is the stream index of stripes[0].
	step   func(stripes []*core.Stripe, first int) error
	verify func(rolling []uint32) error
}

// stream runs one attempt's streaming pass on the batch ring
// (runRing):
//
//   - the I/O stage reads each batch's strips through the per-shard
//     buffered readers, checksumming them if the rung says so, and —
//     for a sink whose output goes to the store (repair) — hands batch
//     N to the sink just before reading batch N+ringDepth;
//   - the code stage runs the rung's step (in-line, or over a worker
//     pool when Options.Workers > 1) and updates the rolling CRCs of
//     the columns the step leaves behind;
//   - the output stage hands the data strips to the caller's writer
//     (decode).
//
// Every store call of the attempt is issued by the I/O stage, so seeded
// fault schedules stay a function of the operation sequence.
func (r *recovery) stream(readers []*bufio.Reader, targets []int, g rung, sink recoverSink) error {
	if err := sink.begin(targets); err != nil {
		return err
	}
	m := r.m
	rolling := make([]uint32, m.NumShards())
	var readSums []uint32 // the I/O stage's share of rolling, if any
	if g.sumRead {
		readSums = rolling
	}
	clk := ringClock{reg: r.reg, op: "decode"}
	if sink.storeOutput() {
		clk.op = "repair"
	}
	err := runRing(r.ctx, clk, core.SharedStripePool(m.K, m.M, r.code.W(), m.ElemSize),
		m.Stripes, r.opt.batch(), ringStages{
			fill: func(stripes []*core.Stripe) error {
				if col, err := fillBatch(readers, stripes, readSums); err != nil {
					return &quarantineError{col: col, cause: err}
				}
				return nil
			},
			step: func(stripes []*core.Stripe, first int) error {
				if err := g.step(stripes, first); err != nil {
					return err
				}
				updateCRCs(rolling, stripes, g.sumCoded)
				return nil
			},
			out:     sink.consume,
			outOnIO: sink.storeOutput(),
		})
	if err != nil {
		return err
	}
	if err := g.verify(rolling); err != nil {
		return err
	}
	return sink.finish()
}

// updateCRCs folds the given columns of each stripe into the rolling
// CRCs, in stream order.
func updateCRCs(rolling []uint32, stripes []*core.Stripe, cols []int) {
	for _, s := range stripes {
		for _, i := range cols {
			rolling[i] = crc32.Update(rolling[i], crc32.IEEETable, s.Strips[i])
		}
	}
}

// recoverSink receives the recovered stripes of one attempt. begin is
// called at the start of every attempt (a restart must rewind), consume
// after each batch is decoded/corrected, in stream order, finish on
// success (only after the stream verified every target's checksum), and
// abort exactly once when the recovery ends (success or not).
type recoverSink interface {
	begin(targets []int) error
	consume(stripes []*core.Stripe) error
	finish() error
	abort()
	// canRestart reports whether a later begin can undo consumed output.
	canRestart() bool
	// storeOutput reports whether consume issues store calls, and so
	// must run on the stream's I/O stage.
	storeOutput() bool
}

// decodeSink streams the data strips to the caller's writer, truncating
// to the original file size. Restarts rewind the writer when it supports
// Seek+Truncate (*os.File does); otherwise the restart is refused and
// the decode fails with the quarantine cause.
type decodeSink struct {
	w         io.Writer
	m         *Manifest
	remaining int64
	attempts  int
}

// rewindableWriter is what a decode destination must implement to
// support mid-stream quarantine restarts.
type rewindableWriter interface {
	io.WriteSeeker
	Truncate(int64) error
}

func (s *decodeSink) begin([]int) error {
	s.attempts++
	if s.attempts > 1 {
		rw, ok := s.w.(rewindableWriter)
		if !ok {
			return fmt.Errorf("shard: mid-stream quarantine needs a rewindable output (got %T)", s.w)
		}
		if _, err := rw.Seek(0, io.SeekStart); err != nil {
			return err
		}
		if err := rw.Truncate(0); err != nil {
			return err
		}
	}
	s.remaining = s.m.FileSize
	return nil
}

func (s *decodeSink) consume(stripes []*core.Stripe) error {
	stripBytes, _ := s.m.shardShape()
	for _, stripe := range stripes {
		for t := 0; t < s.m.K && s.remaining > 0; t++ {
			out := int64(stripBytes)
			if out > s.remaining {
				out = s.remaining
			}
			if _, err := s.w.Write(stripe.Strips[t][:out]); err != nil {
				return err
			}
			s.remaining -= out
		}
	}
	return nil
}

func (s *decodeSink) finish() error {
	if s.remaining != 0 {
		return fmt.Errorf("shard: %d bytes unaccounted for", s.remaining)
	}
	return nil
}

func (s *decodeSink) abort() {}

func (s *decodeSink) canRestart() bool {
	_, ok := s.w.(rewindableWriter)
	return ok
}

func (s *decodeSink) storeOutput() bool { return false }

// repairSink streams each target column into a temporary file; finish
// syncs and renames them over the broken shards. The stream calls
// finish only once every target's rolling CRC matched the manifest, so
// a failed repair never clobbers anything. Restarts recreate the temp
// files.
type repairSink struct {
	m   *Manifest
	st  store.Store
	dir string

	targets  []int
	files    map[int]store.File
	writers  map[int]*bufio.Writer
	repaired []int
}

func (s *repairSink) tmpPath(e int) string {
	return filepath.Join(s.dir, s.m.ShardName(e)+".repair")
}

func (s *repairSink) begin(targets []int) error {
	s.cleanup()
	s.targets = append([]int(nil), targets...)
	s.files = make(map[int]store.File, len(targets))
	s.writers = make(map[int]*bufio.Writer, len(targets))
	for _, e := range targets {
		f, err := s.st.Create(s.tmpPath(e))
		if err != nil {
			return err
		}
		s.files[e] = f
		s.writers[e] = bufio.NewWriterSize(&store.OffsetWriter{F: f}, 256<<10)
	}
	return nil
}

func (s *repairSink) consume(stripes []*core.Stripe) error {
	for _, stripe := range stripes {
		for _, e := range s.targets {
			if _, err := s.writers[e].Write(stripe.Strips[e]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *repairSink) finish() error {
	for _, e := range s.targets {
		if err := s.writers[e].Flush(); err != nil {
			return err
		}
		if err := s.files[e].Sync(); err != nil {
			return err
		}
		if err := s.files[e].Close(); err != nil {
			s.files[e] = nil
			return err
		}
		s.files[e] = nil
		if err := s.st.Rename(s.tmpPath(e), filepath.Join(s.dir, s.m.ShardName(e))); err != nil {
			return err
		}
	}
	s.repaired = append([]int(nil), s.targets...)
	s.files, s.writers = nil, nil
	s.targets = nil
	return nil
}

func (s *repairSink) abort() { s.cleanup() }

func (s *repairSink) canRestart() bool { return true }

func (s *repairSink) storeOutput() bool { return true }

// cleanup closes and removes any temp files of an unfinished attempt.
func (s *repairSink) cleanup() {
	for e, f := range s.files {
		if f != nil {
			f.Close()
		}
		s.st.Remove(s.tmpPath(e))
	}
	s.files, s.writers = nil, nil
	s.targets = nil
}

// newShardReaders wraps the streaming shard files in buffered readers;
// skipped (erased) and absent slots stay nil.
func newShardReaders(m *Manifest, files []store.File, skip map[int]bool) []*bufio.Reader {
	_, shardSize := m.shardShape()
	readers := make([]*bufio.Reader, len(files))
	for i, f := range files {
		if f != nil && !skip[i] {
			readers[i] = bufio.NewReaderSize(store.SectionReader(f, shardSize), 128<<10)
		}
	}
	return readers
}

// fillBatch reads the next strip of every streaming shard into each
// stripe of the batch, updating the rolling CRCs when given. Skipped
// strips are left as-is: the decoder rewrites them from scratch. On a
// read failure (transient retries already exhausted below this layer) it
// returns the failing column for quarantine.
func fillBatch(readers []*bufio.Reader, stripes []*core.Stripe, rolling []uint32) (int, error) {
	for _, s := range stripes {
		for i, br := range readers {
			if br == nil {
				continue
			}
			if _, err := io.ReadFull(br, s.Strips[i]); err != nil {
				return i, fmt.Errorf("shard: shard %d failed mid-stream: %w", i, err)
			}
			if rolling != nil {
				rolling[i] = crc32.Update(rolling[i], crc32.IEEETable, s.Strips[i])
			}
		}
	}
	return -1, nil
}

// decodeBatch reconstructs the erased strips of every stripe in the
// batch, over a worker pool when the options ask for one.
func decodeBatch(ctx context.Context, code core.Code, stripes []*core.Stripe, erased []int, opt Options) error {
	if workers := opt.workerCount(); workers > 1 {
		return pipeline.DecodeAll(code, stripes, erased, nil,
			pipeline.Config{Workers: workers, Registry: opt.Registry, Context: ctx})
	}
	for _, s := range stripes {
		if err := code.Decode(s, erased, nil); err != nil {
			return err
		}
	}
	return nil
}
