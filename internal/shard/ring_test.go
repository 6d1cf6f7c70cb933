package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// ringTestFile encodes a k=4 liberation file of 40 stripes with 4 KiB
// elements: 800 KiB per shard, so with BatchStripes 4 a stream runs ten
// batches and each shard takes seven 128 KiB reads (probe and stream
// alike).
func ringTestFile(t *testing.T) (dir, manifest string, content []byte, m *Manifest) {
	t.Helper()
	dir, content, m = encodeTestFile(t, 40*4*5*4096, 4, 0, 4096)
	return dir, filepath.Join(dir, ManifestName(m.FileName)), content, m
}

// awaitGoroutines fails the test unless the goroutine count falls back
// to base before a deadline: a stream that returns must not leave any
// of its stages behind.
func awaitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func removeShards(t *testing.T, dir string, m *Manifest, idx ...int) {
	t.Helper()
	for _, i := range idx {
		if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// d01ReadFault fails every read of shard d01 after its probe pass (7
// reads) and three streaming reads: the fourth streaming read covers
// stripes 19-25, inside the fifth of ten batches.
func d01ReadFault(m *Manifest) *faultstore.Store {
	return faultstore.New(store.OS{}, faultstore.Config{Seed: 3, Rules: []faultstore.Rule{
		{Path: m.ShardName(1), Op: faultstore.OpRead, Kind: faultstore.Permanent, Prob: 1, After: 7 + 3},
	}})
}

// assertNoFiles fails the test if dir holds anything: a failed encode
// leaves no shard or manifest behind.
func assertNoFiles(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover file %q after a failed encode", e.Name())
	}
}

// ringAbortCase is one failing stream of the ring abort tests: run
// must fail with an error want accepts. setup, if set, runs first.
type ringAbortCase struct {
	name  string
	setup func()
	run   func() error
	want  func(error) bool
}

// runAbortCases runs each case and checks that it failed as expected,
// left no repair temp in dir and no file in encDir, and stopped every
// stage of its ring.
func runAbortCases(t *testing.T, dir, encDir string, cases []ringAbortCase) {
	t.Helper()
	base := runtime.NumGoroutine()
	for _, tc := range cases {
		if tc.setup != nil {
			tc.setup()
		}
		if err := tc.run(); !tc.want(err) {
			t.Fatalf("%s: unexpected err = %v", tc.name, err)
		}
		assertNoRepairTemps(t, dir)
		assertNoFiles(t, encDir)
		awaitGoroutines(t, base)
	}
}

// TestRingAbortReadFault: a permanent store fault in a later batch
// ends the stream with that fault and stops every stage. A read fault
// on a data shard, with two other shards already lost, leaves decode
// and repair nothing to restart with: *UnrecoverableError, and no
// repair temp left behind. A write fault on one shard of an encode
// returns the injected error and leaves no file behind.
func TestRingAbortReadFault(t *testing.T) {
	dir, manifest, content, m := ringTestFile(t)
	removeShards(t, dir, m, 0, m.K)
	encDir := t.TempDir()
	unrecoverable := func(err error) bool {
		var u *UnrecoverableError
		return errors.As(err, &u)
	}
	injected := func(err error) bool { return errors.Is(err, store.ErrInjected) }
	cases := []ringAbortCase{
		{name: "decode", want: unrecoverable, run: func() error {
			_, err := DecodeReport(manifest, &bytes.Buffer{}, Options{BatchStripes: 4, Store: d01ReadFault(m)})
			return err
		}},
		{name: "repair", want: unrecoverable, run: func() error {
			_, err := RepairOpts(manifest, Options{BatchStripes: 4, Store: d01ReadFault(m)})
			return err
		}},
	}
	for _, workers := range []int{1, 2} {
		cases = append(cases, ringAbortCase{
			name: fmt.Sprintf("encode workers=%d", workers), want: injected,
			run: func() error {
				// The second 256 KiB write of d01 lands in the seventh
				// of ten batches.
				st := faultstore.New(store.OS{}, faultstore.Config{Seed: 3, Rules: []faultstore.Rule{
					{Path: m.ShardName(1), Op: faultstore.OpWrite, Kind: faultstore.Permanent, Prob: 1, After: 1},
				}})
				_, err := EncodeOpts(bytes.NewReader(content), m.FileSize, m.FileName, m.K, m.P, m.ElemSize,
					encDir, Options{BatchStripes: 4, Workers: workers, Store: st})
				return err
			}})
	}
	runAbortCases(t, dir, encDir, cases)
}

// failingWriter accepts left bytes, then fails every write.
type failingWriter struct{ left int }

var errWriterFull = errors.New("writer failed mid-stream")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		return 0, errWriterFull
	}
	w.left -= len(p)
	return len(p), nil
}

// TestRingAbortWriterFails: a caller endpoint that fails mid-stream
// ends the stream with its own error and stops every stage: a decode
// writer, on the clean and the degraded stream alike, and an encode
// source reader failing in the fifth of ten batches, which must leave
// no file behind.
func TestRingAbortWriterFails(t *testing.T) {
	dir, manifest, content, m := ringTestFile(t)
	encDir := t.TempDir()
	var cases []ringAbortCase
	for _, lose := range [][]int{nil, {2, m.K + 1}} {
		for _, workers := range []int{0, 2} {
			tc := ringAbortCase{
				name: fmt.Sprintf("decode lost %v workers=%d", lose, workers),
				want: func(err error) bool { return errors.Is(err, errWriterFull) },
				run: func() error {
					_, err := DecodeReport(manifest, &failingWriter{left: 1 << 20},
						Options{BatchStripes: 4, Workers: workers})
					return err
				}}
			if workers == 0 {
				tc.setup = func() { removeShards(t, dir, m, lose...) }
			}
			cases = append(cases, tc)
		}
	}
	batchBytes := int64(4 * m.K * m.widthElems() * m.ElemSize)
	for _, workers := range []int{1, 2} {
		cases = append(cases, ringAbortCase{
			name: fmt.Sprintf("encode workers=%d", workers),
			want: func(err error) bool { return errors.Is(err, errInjected) },
			run: func() error {
				r := &failingReader{r: bytes.NewReader(content), left: 4*batchBytes + 100}
				_, err := EncodeOpts(r, m.FileSize, m.FileName, m.K, m.P, m.ElemSize,
					encDir, Options{BatchStripes: 4, Workers: workers})
				return err
			}})
	}
	runAbortCases(t, dir, encDir, cases)
}

// cancelStore cancels the operation's context on the n-th shard read
// and from then on fails every call transiently, so the retry layer's
// backoff is what observes the cancellation.
type cancelStore struct {
	inner  store.Store
	reads  atomic.Int64
	n      int64
	cancel context.CancelFunc
}

func (s *cancelStore) tripped() bool { return s.reads.Load() >= s.n }

func (s *cancelStore) Open(path string) (store.File, error) {
	if s.tripped() {
		return nil, store.NewTransient("open", path, errors.New("store gone"))
	}
	f, err := s.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &cancelFile{File: f, s: s, path: path}, nil
}

func (s *cancelStore) Create(path string) (store.File, error) {
	if s.tripped() {
		return nil, store.NewTransient("create", path, errors.New("store gone"))
	}
	return s.inner.Create(path)
}

func (s *cancelStore) Rename(oldPath, newPath string) error { return s.inner.Rename(oldPath, newPath) }
func (s *cancelStore) Remove(path string) error             { return s.inner.Remove(path) }

type cancelFile struct {
	store.File
	s    *cancelStore
	path string
}

func (f *cancelFile) ReadAt(p []byte, off int64) (int, error) {
	if filepath.Ext(f.path) != ".json" && f.s.reads.Add(1) >= f.s.n {
		f.s.cancel()
		return 0, store.NewTransient("read", f.path, errors.New("store gone"))
	}
	return f.File.ReadAt(p, off)
}

// cancelReader serves r and cancels the operation's context once left
// bytes have been read.
type cancelReader struct {
	r      io.Reader
	left   int64
	cancel context.CancelFunc
}

func (c *cancelReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if c.left -= int64(n); c.left <= 0 {
		c.cancel()
	}
	return n, err
}

// cancelWriter accepts every write and cancels the operation's context
// on the first.
type cancelWriter struct{ cancel context.CancelFunc }

func (w cancelWriter) Write(p []byte) (int, error) {
	w.cancel()
	return len(p), nil
}

// TestRingAbortContextCancelled: a cancelled context ends every stream
// and stops all its stages.
//
//   - Cancelled mid-stream, on the 60th shard read (the probe takes 35,
//     so the 25th streaming read): decode and repair fail with
//     *UnrecoverableError, the shard whose read saw the cancellation
//     quarantined with it as the cause.
//   - Cancelled between batches, by an encode source reader after the
//     first batch or a decode writer on its first write: the stream
//     stops before reading the next batch and fails with
//     context.Canceled, serial or pooled.
//
// No shard, manifest or repair temp is left behind.
func TestRingAbortContextCancelled(t *testing.T) {
	dir, manifest, content, m := ringTestFile(t)
	removeShards(t, dir, m, 3)
	encDir := t.TempDir()
	retry := store.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Second}
	quarantined := func(err error) bool {
		var u *UnrecoverableError
		if !errors.As(err, &u) {
			return false
		}
		for _, st := range u.Status {
			if st.State == StateQuarantined && errors.Is(st.Err, context.Canceled) {
				return true
			}
		}
		return false
	}
	stopped := func(err error) bool { return errors.Is(err, context.Canceled) }
	// cancelled runs op with a fresh cancellable context.
	cancelled := func(op func(ctx context.Context, cancel context.CancelFunc) error) func() error {
		return func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			return op(ctx, cancel)
		}
	}

	cases := []ringAbortCase{
		{name: "decode mid-stream", want: quarantined, run: cancelled(func(ctx context.Context, cancel context.CancelFunc) error {
			st := &cancelStore{inner: store.OS{}, n: 60, cancel: cancel}
			_, err := DecodeReport(manifest, &bytes.Buffer{},
				Options{BatchStripes: 4, Store: st, Context: ctx, Retry: retry})
			return err
		})},
		{name: "repair mid-stream", want: quarantined, run: cancelled(func(ctx context.Context, cancel context.CancelFunc) error {
			st := &cancelStore{inner: store.OS{}, n: 60, cancel: cancel}
			_, err := RepairOpts(manifest, Options{BatchStripes: 4, Store: st, Context: ctx, Retry: retry})
			return err
		})},
	}
	batchBytes := int64(4 * m.K * m.widthElems() * m.ElemSize)
	for _, workers := range []int{0, 2} {
		cases = append(cases,
			ringAbortCase{name: fmt.Sprintf("encode between batches workers=%d", workers), want: stopped,
				run: cancelled(func(ctx context.Context, cancel context.CancelFunc) error {
					r := &cancelReader{r: bytes.NewReader(content), left: batchBytes, cancel: cancel}
					_, err := EncodeOpts(r, m.FileSize, m.FileName, m.K, m.P, m.ElemSize, encDir,
						Options{BatchStripes: 4, Workers: workers, Context: ctx})
					return err
				})},
			ringAbortCase{name: fmt.Sprintf("decode between batches workers=%d", workers), want: stopped,
				run: cancelled(func(ctx context.Context, cancel context.CancelFunc) error {
					_, err := DecodeReport(manifest, cancelWriter{cancel: cancel},
						Options{BatchStripes: 4, Workers: workers, Context: ctx})
					return err
				})})
	}
	runAbortCases(t, dir, encDir, cases)
}

// TestRingRestartIntoFile: a shard that fails mid-stream is quarantined
// and the decode restarts without it; an *os.File destination is
// rewound, so the output is byte-identical to the original.
func TestRingRestartIntoFile(t *testing.T) {
	dir, manifest, content, m := ringTestFile(t)
	removeShards(t, dir, m, 0)
	base := runtime.NumGoroutine()
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	rep, err := DecodeReport(manifest, out, Options{BatchStripes: 4, Store: d01ReadFault(m)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 || len(rep.Quarantined) != 1 || rep.Quarantined[0] != 1 {
		t.Errorf("attempts = %d, quarantined = %v; want 2 and [1]", rep.Attempts, rep.Quarantined)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("restarted decode differs from the original")
	}
	awaitGoroutines(t, base)
}

// badDecoder is a code whose Decode reconstructs wrong bytes: it flips
// one bit of the first erased strip after the real decode.
type badDecoder struct{ core.Code }

func (c badDecoder) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	if err := c.Code.Decode(s, erased, ops); err != nil {
		return err
	}
	if len(erased) > 0 {
		s.Strips[erased[0]][0] ^= 1
	}
	return nil
}

// TestRepairVerifiesBeforeRename: the stream's end-of-stream checksum
// check is the only guard between a wrong reconstruction and the
// rename. With a decoder that writes wrong bytes, repair must fail with
// *UnrecoverableError, leave the corrupt shard exactly as it was, and
// remove its temp file.
func TestRepairVerifiesBeforeRename(t *testing.T) {
	dir, manifest, _, m := ringTestFile(t)
	path := filepath.Join(dir, m.ShardName(2))
	broken, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	broken[12345] ^= 0x40
	if err := os.WriteFile(path, broken, 0o644); err != nil {
		t.Fatal(err)
	}
	real := newCode
	newCode = func(name string, k, p int, reg *obs.Registry) (core.Code, error) {
		code, err := real(name, k, p, reg)
		if err != nil {
			return nil, err
		}
		return badDecoder{code}, nil
	}
	defer func() { newCode = real }()

	_, err = RepairOpts(manifest, Options{BatchStripes: 4})
	var u *UnrecoverableError
	if !errors.As(err, &u) {
		t.Fatalf("repair with a wrong decoder: err = %v, want *UnrecoverableError", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, broken) {
		t.Error("failed repair replaced the broken shard")
	}
	assertNoRepairTemps(t, dir)
}
