package shard

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/store"
	"repro/internal/store/faultstore"
)

// TestStreamingGolden pins the streaming Decode/Repair against the
// original content for a matrix of code shapes, erasure pairs, and
// awkward sizes: every recovered byte and every repaired shard file
// must match what the encode produced.
func TestStreamingGolden(t *testing.T) {
	sizes := []int64{0, 1, 3*4*32 - 1, 3 * 4 * 32, 5*5*32*2 + 17}
	for _, k := range []int{3, 5, 7} {
		for _, size := range sizes {
			t.Run(fmt.Sprintf("k=%d/size=%d", k, size), func(t *testing.T) {
				dir, content, m := encodeTestFile(t, size, k, 0, 32)
				// Save every shard's original bytes so repairs can be
				// compared byte-for-byte, not just by checksum.
				golden := make([][]byte, m.K+2)
				for i := range golden {
					b, err := os.ReadFile(filepath.Join(dir, m.ShardName(i)))
					if err != nil {
						t.Fatal(err)
					}
					golden[i] = b
				}
				manifest := filepath.Join(dir, ManifestName(m.FileName))
				for a := 0; a < m.K+2; a++ {
					for b := a + 1; b < m.K+2; b++ {
						for _, e := range []int{a, b} {
							if err := os.Remove(filepath.Join(dir, m.ShardName(e))); err != nil {
								t.Fatal(err)
							}
						}
						var out bytes.Buffer
						if _, err := DecodeReport(manifest, &out, Options{}); err != nil {
							t.Fatalf("Decode erasures (%d,%d): %v", a, b, err)
						}
						if !bytes.Equal(out.Bytes(), content) {
							t.Fatalf("decode erasures (%d,%d): output differs from original", a, b)
						}
						repaired, err := RepairOpts(manifest, Options{})
						if err != nil {
							t.Fatalf("Repair erasures (%d,%d): %v", a, b, err)
						}
						if len(repaired) != 2 {
							t.Fatalf("Repair erasures (%d,%d): repaired %v, want 2 shards", a, b, repaired)
						}
						for _, e := range []int{a, b} {
							got, err := os.ReadFile(filepath.Join(dir, m.ShardName(e)))
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(got, golden[e]) {
								t.Fatalf("repaired shard %d differs from its original bytes", e)
							}
						}
					}
				}
			})
		}
	}
}

// TestStreamingOptionsMatchDefaults checks that worker and batch knobs
// change only performance, never bytes: every Options combination must
// produce shard files and decode output identical to the zero-value
// path.
func TestStreamingOptionsMatchDefaults(t *testing.T) {
	const size = 4*5*64*7 + 333
	content := make([]byte, size)
	rand.New(rand.NewSource(99)).Read(content)

	baseDir := t.TempDir()
	base, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", 4, 0, 64, baseDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseShards := make([][]byte, base.K+2)
	for i := range baseShards {
		b, err := os.ReadFile(filepath.Join(baseDir, base.ShardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		baseShards[i] = b
	}

	for _, opt := range []Options{
		{Workers: 4},
		{BatchStripes: 1},
		{BatchStripes: 3},
		{Workers: 4, BatchStripes: 2},
		{Workers: -1, BatchStripes: 1000},
	} {
		name := fmt.Sprintf("workers=%d/batch=%d", opt.Workers, opt.BatchStripes)
		dir := t.TempDir()
		m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", 4, 0, 64, dir, opt)
		if err != nil {
			t.Fatalf("%s: EncodeOpts: %v", name, err)
		}
		for i := range baseShards {
			got, err := os.ReadFile(filepath.Join(dir, m.ShardName(i)))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, baseShards[i]) {
				t.Fatalf("%s: shard %d differs from the default-path shard", name, i)
			}
		}
		if err := os.Remove(filepath.Join(dir, m.ShardName(1))); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), &out, opt); err != nil {
			t.Fatalf("%s: DecodeReport: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), content) {
			t.Fatalf("%s: decode output differs from original", name)
		}
	}
}

// crcWriter consumes a decode stream without retaining it, so the
// bounded-memory test measures the pipeline's allocations, not the
// output buffer's.
type crcWriter struct {
	sum uint32
	n   int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.sum = crc32.Update(w.sum, crc32.IEEETable, p)
	w.n += int64(len(p))
	return len(p), nil
}

// TestDecodeBoundedMemory proves the O(batch × stripe) claim: decoding a
// 64 MiB file with one shard erased must allocate far less than the file
// size. The stripe pool is primed by a first decode so the measured pass
// shows steady-state behaviour.
func TestDecodeBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("64 MiB file")
	}
	const size = 64 << 20
	const k, elem = 4, 4096
	dir := t.TempDir()
	content := make([]byte, size)
	rand.New(rand.NewSource(7)).Read(content)
	wantCRC := crc32.ChecksumIEEE(content)
	m, err := EncodeOpts(bytes.NewReader(content), size, "big.bin", k, 0, elem, dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	content = nil
	if err := os.Remove(filepath.Join(dir, m.ShardName(2))); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, ManifestName(m.FileName))

	decodeOnce := func() *crcWriter {
		w := &crcWriter{}
		if _, err := DecodeReport(manifest, w, Options{}); err != nil {
			t.Fatal(err)
		}
		return w
	}
	decodeOnce() // warm the stripe pool and file cache

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	w := decodeOnce()
	runtime.ReadMemStats(&after)

	if w.n != size || w.sum != wantCRC {
		t.Fatalf("decoded %d bytes crc %08x, want %d bytes crc %08x", w.n, w.sum, size, wantCRC)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	// Budget: a few batches of stripes (DefaultBatchStripes × stripe ≈
	// 6 MiB here) plus buffered I/O — far below the 64 MiB file.
	const budget = 24 << 20
	if alloc > budget {
		t.Fatalf("decode of %d MiB allocated %d MiB, want < %d MiB (not O(file))",
			size>>20, alloc>>20, budget>>20)
	}
	t.Logf("decode of %d MiB allocated %.1f MiB", size>>20, float64(alloc)/(1<<20))
}

// failingReader errors after a fixed number of bytes, mid-stream.
type failingReader struct {
	r    io.Reader
	left int64
}

var errInjected = errors.New("injected read failure")

func (f *failingReader) Read(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errInjected
	}
	if int64(len(p)) > f.left {
		p = p[:f.left]
	}
	n, err := f.r.Read(p)
	f.left -= int64(n)
	return n, err
}

// TestEncodeCleansUpOnError checks the tentpole's failure contract: an
// encode that dies mid-stream (reader error, both serial and parallel)
// must remove every shard file it created and write no manifest.
func TestEncodeCleansUpOnError(t *testing.T) {
	const size = 4 * 5 * 64 * 50 // 50 stripes, fails partway
	content := make([]byte, size)
	rand.New(rand.NewSource(5)).Read(content)
	for _, opt := range []Options{{}, {Workers: 4, BatchStripes: 2}} {
		dir := t.TempDir()
		r := &failingReader{r: bytes.NewReader(content), left: size / 3}
		_, err := EncodeOpts(r, size, "blob.bin", 4, 0, 64, dir, opt)
		if !errors.Is(err, errInjected) {
			t.Fatalf("workers=%d: err = %v, want injected read failure", opt.Workers, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("workers=%d: leftover file %q after failed encode", opt.Workers, e.Name())
		}
	}
}

// TestEncodeShortReaderFails pins the size reconciliation: a reader that
// runs dry before the declared size is an error, and still cleans up.
func TestEncodeShortReaderFails(t *testing.T) {
	dir := t.TempDir()
	content := make([]byte, 1000)
	_, err := EncodeOpts(bytes.NewReader(content), 5000, "blob.bin", 4, 0, 64, dir, Options{})
	if err == nil {
		t.Fatal("Encode with short reader succeeded, want error")
	}
	entries, readErr := os.ReadDir(dir)
	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, e := range entries {
		t.Errorf("leftover file %q after short-read encode", e.Name())
	}
}

// TestDecodeDetectsMidStreamCorruption checks the rolling-CRC defense:
// a shard whose content lies between the probe and the streaming read
// (here: a read-path bit-flip injected after the probe's checksum pass)
// must not silently feed stale bytes into the output — the self-healing
// decode quarantines it and restarts without it.
func TestDecodeDetectsMidStreamCorruption(t *testing.T) {
	dir, content, m := encodeTestFile(t, 4*5*64*8, 4, 0, 64)

	// Shard d01 is smaller than one probe buffer, so the probe costs
	// exactly one read; After:1 makes the single bit-flip land on the
	// streaming read instead.
	faulty := faultstore.New(store.OS{}, faultstore.Config{Seed: 7, Rules: []faultstore.Rule{
		{Path: m.ShardName(1), Op: faultstore.OpRead, Kind: faultstore.BitFlip, Prob: 1, Count: 1, After: 1},
	}})
	out, err := os.Create(filepath.Join(t.TempDir(), "out"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), out,
		Options{Store: faulty})
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if rep.Attempts < 2 {
		t.Errorf("attempts = %d, want a quarantine restart", rep.Attempts)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != 1 {
		t.Errorf("quarantined = %v, want [1]", rep.Quarantined)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("self-healed decode differs from the original")
	}
}
