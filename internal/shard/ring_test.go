package shard

import (
	"bytes"
	"context"
	"errors"
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

// TestRingAbortReadFault: a permanent read fault on a data shard in a
// later batch, with two other shards already lost, leaves nothing to
// restart with — decode and repair fail with *UnrecoverableError, stop
// every stage and leave no repair temp behind.
func TestRingAbortReadFault(t *testing.T) {
	dir, manifest, _, m := ringTestFile(t)
	removeShards(t, dir, m, 0, m.K)
	base := runtime.NumGoroutine()
	var u *UnrecoverableError

	_, err := DecodeReport(manifest, &bytes.Buffer{}, Options{BatchStripes: 4, Store: d01ReadFault(m)})
	if !errors.As(err, &u) {
		t.Fatalf("decode: err = %v, want *UnrecoverableError", err)
	}
	awaitGoroutines(t, base)

	_, err = RepairOpts(manifest, Options{BatchStripes: 4, Store: d01ReadFault(m)})
	if !errors.As(err, &u) {
		t.Fatalf("repair: err = %v, want *UnrecoverableError", err)
	}
	assertNoRepairTemps(t, dir)
	awaitGoroutines(t, base)
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

// TestRingAbortWriterFails: a caller writer that fails mid-stream ends
// the decode with the writer's own error, on the clean and the degraded
// stream alike, and stops every stage.
func TestRingAbortWriterFails(t *testing.T) {
	dir, manifest, _, m := ringTestFile(t)
	base := runtime.NumGoroutine()
	for _, lose := range [][]int{nil, {2, m.K + 1}} {
		removeShards(t, dir, m, lose...)
		for _, opt := range []Options{{BatchStripes: 4}, {BatchStripes: 4, Workers: 2}} {
			_, err := DecodeReport(manifest, &failingWriter{left: 1 << 20}, opt)
			if !errors.Is(err, errWriterFull) {
				t.Fatalf("lost %v workers=%d: err = %v, want the writer's error", lose, opt.Workers, err)
			}
			awaitGoroutines(t, base)
		}
	}
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

// TestRingAbortContextCancelled: a context cancelled mid-stream (on the
// 60th shard read: the probe takes 35, so the 25th streaming read) ends
// decode and repair with *UnrecoverableError, the shard whose read saw
// the cancellation quarantined with it as the cause. Every stage stops
// and no repair temp is left behind.
func TestRingAbortContextCancelled(t *testing.T) {
	dir, manifest, _, m := ringTestFile(t)
	removeShards(t, dir, m, 3)
	base := runtime.NumGoroutine()
	retry := store.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Second}
	cancelled := func(err error) bool {
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

	ctx, cancel := context.WithCancel(context.Background())
	st := &cancelStore{inner: store.OS{}, n: 60, cancel: cancel}
	_, err := DecodeReport(manifest, &bytes.Buffer{},
		Options{BatchStripes: 4, Store: st, Context: ctx, Retry: retry})
	if !cancelled(err) {
		t.Fatalf("decode: err = %v, want *UnrecoverableError from the cancellation", err)
	}
	awaitGoroutines(t, base)

	ctx, cancel = context.WithCancel(context.Background())
	st = &cancelStore{inner: store.OS{}, n: 60, cancel: cancel}
	_, err = RepairOpts(manifest, Options{BatchStripes: 4, Store: st, Context: ctx, Retry: retry})
	if !cancelled(err) {
		t.Fatalf("repair: err = %v, want *UnrecoverableError from the cancellation", err)
	}
	assertNoRepairTemps(t, dir)
	awaitGoroutines(t, base)
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
