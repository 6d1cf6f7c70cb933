package shard

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
)

var updateStoreCalls = flag.Bool("update-storecalls", false,
	"rewrite testdata/storecalls_*.txt from this build's store-call sequences")

// callLog is the ordered record of every store call one operation made.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(format string, args ...any) {
	l.mu.Lock()
	l.calls = append(l.calls, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func errTag(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, fs.ErrNotExist):
		return "enoent"
	}
	return "err"
}

// recordingStore logs (op, path, offset, length) for every call that
// reaches it. Paths are logged by base name so a sequence does not
// depend on the temp directory it ran in.
type recordingStore struct {
	inner store.Store
	log   *callLog
}

func (s *recordingStore) Open(path string) (store.File, error) {
	f, err := s.inner.Open(path)
	s.log.add("open %s %s", filepath.Base(path), errTag(err))
	if err != nil {
		return nil, err
	}
	return &recordingFile{f: f, name: filepath.Base(path), log: s.log}, nil
}

func (s *recordingStore) Create(path string) (store.File, error) {
	f, err := s.inner.Create(path)
	s.log.add("create %s %s", filepath.Base(path), errTag(err))
	if err != nil {
		return nil, err
	}
	return &recordingFile{f: f, name: filepath.Base(path), log: s.log}, nil
}

func (s *recordingStore) Rename(oldPath, newPath string) error {
	err := s.inner.Rename(oldPath, newPath)
	s.log.add("rename %s %s %s", filepath.Base(oldPath), filepath.Base(newPath), errTag(err))
	return err
}

func (s *recordingStore) Remove(path string) error {
	err := s.inner.Remove(path)
	s.log.add("remove %s %s", filepath.Base(path), errTag(err))
	return err
}

type recordingFile struct {
	f    store.File
	name string
	log  *callLog
}

func (f *recordingFile) ReadAt(p []byte, off int64) (int, error) {
	f.log.add("read %s %d %d", f.name, off, len(p))
	return f.f.ReadAt(p, off)
}

func (f *recordingFile) WriteAt(p []byte, off int64) (int, error) {
	f.log.add("write %s %d %d", f.name, off, len(p))
	return f.f.WriteAt(p, off)
}

func (f *recordingFile) Size() (int64, error) {
	f.log.add("size %s", f.name)
	return f.f.Size()
}

func (f *recordingFile) Sync() error {
	f.log.add("sync %s", f.name)
	return f.f.Sync()
}

func (f *recordingFile) Close() error {
	f.log.add("close %s", f.name)
	return f.f.Close()
}

// TestStoreCallsDeterministic pins the order of every store call of the
// shard streams. Seeded fault schedules (faultstore, nodestore) are a
// function of the operation sequence, so the sequence must not depend
// on goroutine scheduling: encode (serial and pooled), clean, degraded
// and healing decodes and repair each run 20 times with GOMAXPROCS ≥ 2
// and must issue the identical sequence every time. The encode, clean
// and degraded decode, and repair sequences must also equal the
// committed golden files, which pin them across changes to the
// stream's internals.
func TestStoreCallsDeterministic(t *testing.T) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	// k=4 liberation (w=5) with 4 KiB elements: 80 KiB of data per
	// stripe, 40 stripes, so each 800 KiB shard spans several of the
	// readers' buffer fills and ten batches of four stripes.
	const size = 40*4*5*4096 - 777
	dir, content, m := encodeTestFile(t, size, 4, 0, 4096)
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	lost := []int{1, m.K} // d01 and p

	loseShards := func() {
		for _, i := range lost {
			if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	encDir := t.TempDir()
	encode := func(opt Options) func(st store.Store) error {
		return func(st store.Store) error {
			opt.Store = st
			got, err := EncodeOpts(bytes.NewReader(content), size, m.FileName, m.K, m.P, m.ElemSize, encDir, opt)
			if err == nil && fmt.Sprint(got.Checksums) != fmt.Sprint(m.Checksums) {
				err = fmt.Errorf("encode checksums %v, want %v", got.Checksums, m.Checksums)
			}
			return err
		}
	}
	decode := func(opt Options) func(st store.Store) error {
		return func(st store.Store) error {
			opt.Store = st
			var out bytes.Buffer
			if _, err := DecodeReport(manifest, &out, opt); err != nil {
				return err
			}
			if !bytes.Equal(out.Bytes(), content) {
				return errors.New("decode output differs from the original")
			}
			return nil
		}
	}
	cases := []struct {
		name   string
		golden string // testdata file pinning the sequence, "" for none
		setup  func()
		run    func(st store.Store) error
	}{
		{name: "encode", golden: "storecalls_encode.txt",
			run: encode(Options{BatchStripes: 4})},
		{name: "encode-pool", golden: "storecalls_encode.txt",
			run: encode(Options{BatchStripes: 4, Workers: 2})},
		{name: "clean", golden: "storecalls_decode_clean.txt",
			run: decode(Options{BatchStripes: 4})},
		{name: "heal", run: decode(Options{BatchStripes: 4, Heal: true})},
		{name: "degraded", golden: "storecalls_decode_degraded.txt",
			setup: loseShards, run: decode(Options{BatchStripes: 4, Workers: 2})},
		{name: "repair", golden: "storecalls_repair.txt", run: func(st store.Store) error {
			repaired, err := RepairOpts(manifest, Options{BatchStripes: 4, Store: st})
			if err == nil && fmt.Sprint(repaired) != fmt.Sprint(lost) {
				err = fmt.Errorf("repaired %v, want %v", repaired, lost)
			}
			// Lose the same shards again for the next run.
			loseShards()
			return err
		}},
	}
	for _, tc := range cases {
		if tc.setup != nil {
			tc.setup()
		}
		var first []string
		for i := 0; i < 20; i++ {
			log := &callLog{}
			if err := tc.run(&recordingStore{inner: store.OS{}, log: log}); err != nil {
				t.Fatalf("%s run %d: %v", tc.name, i, err)
			}
			if i == 0 {
				first = log.calls
				continue
			}
			if d := firstDiff(first, log.calls); d >= 0 {
				t.Fatalf("%s run %d: store call %d differs from run 0: %q vs %q",
					tc.name, i, d, at(log.calls, d), at(first, d))
			}
		}
		if tc.golden == "" {
			continue
		}
		path := filepath.Join("testdata", tc.golden)
		got := strings.Join(first, "\n") + "\n"
		if *updateStoreCalls {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update-storecalls)", tc.name, err)
		}
		wantCalls := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
		if d := firstDiff(wantCalls, first); d >= 0 {
			t.Fatalf("%s: store call %d is %q, golden %s has %q (%d vs %d calls)",
				tc.name, d, at(first, d), tc.golden, at(wantCalls, d), len(first), len(wantCalls))
		}
	}
}

// firstDiff returns the first index at which a and b differ, -1 when
// they are equal.
func firstDiff(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(calls []string, i int) string {
	if i < len(calls) {
		return calls[i]
	}
	return "<end>"
}
