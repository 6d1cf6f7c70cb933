package shard

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// Layer benchmarks of the shard streams on the real filesystem: a 64 MiB
// file, liberation k=8 p=11, 4 KiB elements, the shard set under
// b.TempDir(). MB/s counts file bytes encoded, checked (verify),
// recovered (decode) or covered by the rebuilt shards' stripes (repair),
// so the five figures share one unit.
//
//	go test -run '^$' -bench BenchmarkShard ./internal/shard

const benchFileSize = 64 << 20

// benchContent is the seeded benchmark file.
func benchContent() []byte {
	content := make([]byte, benchFileSize)
	rand.New(rand.NewSource(64)).Read(content)
	return content
}

// benchEncode encodes content into dir.
func benchEncode(b *testing.B, content []byte, dir string) *Manifest {
	b.Helper()
	m, err := EncodeOpts(bytes.NewReader(content), benchFileSize, "bench.bin", 8, 11, 4096, dir,
		Options{Store: store.OS{}})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// benchShardSet encodes the benchmark file once into a fresh directory
// and returns its manifest path.
func benchShardSet(b *testing.B) (manifestPath string, m *Manifest) {
	b.Helper()
	dir := b.TempDir()
	m = benchEncode(b, benchContent(), dir)
	return filepath.Join(dir, ManifestName(m.FileName)), m
}

// BenchmarkShardEncode encodes the file into the same directory each
// iteration, overwriting the previous shard set.
func BenchmarkShardEncode(b *testing.B) {
	content := benchContent()
	dir := b.TempDir()
	b.SetBytes(benchFileSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchEncode(b, content, dir)
	}
}

// BenchmarkShardVerify checks a healthy shard set.
func BenchmarkShardVerify(b *testing.B) {
	manifest, _ := benchShardSet(b)
	b.SetBytes(benchFileSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(manifest, Options{Store: store.OS{}}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecode(b *testing.B, lost []int) {
	manifest, m := benchShardSet(b)
	for _, i := range lost {
		if err := os.Remove(filepath.Join(filepath.Dir(manifest), m.ShardName(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(benchFileSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReport(manifest, io.Discard, Options{Store: store.OS{}}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardDecode is a clean decode: every shard present.
func BenchmarkShardDecode(b *testing.B) { benchDecode(b, nil) }

// BenchmarkShardDegraded decodes with one data and one parity shard lost.
func BenchmarkShardDegraded(b *testing.B) { benchDecode(b, []int{1, 8}) }

// BenchmarkShardRepair rebuilds one data and one parity shard.
func BenchmarkShardRepair(b *testing.B) {
	manifest, m := benchShardSet(b)
	dir := filepath.Dir(manifest)
	lost := []int{1, 8}
	b.SetBytes(benchFileSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, s := range lost {
			if err := os.Remove(filepath.Join(dir, m.ShardName(s))); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := RepairOpts(manifest, Options{Store: store.OS{}}); err != nil {
			b.Fatal(err)
		}
	}
}
