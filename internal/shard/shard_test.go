package shard

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func encodeTestFile(t *testing.T, size int64, k, p, elem int) (dir string, content []byte, m *Manifest) {
	t.Helper()
	dir = t.TempDir()
	content = make([]byte, size)
	rand.New(rand.NewSource(size + int64(k))).Read(content)
	m, err := EncodeOpts(bytes.NewReader(content), size, "blob.bin", k, p, elem, dir, Options{})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return dir, content, m
}

func decodeAndCompare(t *testing.T, dir string, m *Manifest, want []byte) []ShardStatus {
	t.Helper()
	var out bytes.Buffer
	rep, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), &out, Options{})
	if err != nil {
		t.Fatalf("DecodeReport: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("decoded %d bytes, mismatch with original %d bytes", out.Len(), len(want))
	}
	return rep.Status
}

func TestRoundTripSizes(t *testing.T) {
	// Exercise padding edge cases: empty file, sub-element, sub-stripe,
	// exact multiple, and multi-stripe.
	for _, size := range []int64{0, 1, 100, 4 * 5 * 64, 4*5*64*3 + 17} {
		dir, content, m := encodeTestFile(t, size, 4, 0, 64)
		status := decodeAndCompare(t, dir, m, content)
		for _, st := range status {
			if !st.Present || !st.Valid {
				t.Errorf("size=%d: shard %d unhealthy on clean decode", size, st.Index)
			}
		}
	}
}

func TestRecoverFromMissingShards(t *testing.T) {
	dir, content, m := encodeTestFile(t, 10000, 5, 0, 128)
	// Remove one data shard and the Q shard.
	for _, i := range []int{2, m.K + 1} {
		if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
			t.Fatal(err)
		}
	}
	status := decodeAndCompare(t, dir, m, content)
	if status[2].Present || status[m.K+1].Present {
		t.Error("missing shards reported as present")
	}
}

func TestRecoverFromCorruptShards(t *testing.T) {
	dir, content, m := encodeTestFile(t, 5000, 4, 5, 64)
	// Corrupt two shards (checksums catch it; treated as erasures).
	for _, i := range []int{0, 4} {
		path := filepath.Join(dir, m.ShardName(i))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xff
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	status := decodeAndCompare(t, dir, m, content)
	if status[0].Valid || status[4].Valid {
		t.Error("corrupt shards reported valid")
	}
}

func TestTooManyLosses(t *testing.T) {
	dir, _, m := encodeTestFile(t, 3000, 4, 0, 64)
	for _, i := range []int{0, 1, 2} {
		if err := os.Remove(filepath.Join(dir, m.ShardName(i))); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if _, err := DecodeReport(filepath.Join(dir, ManifestName(m.FileName)), &out, Options{}); err == nil {
		t.Error("decode with 3 missing shards succeeded")
	}
}

func TestRepair(t *testing.T) {
	dir, content, m := encodeTestFile(t, 9999, 6, 7, 32)
	manifest := filepath.Join(dir, ManifestName(m.FileName))
	if err := os.Remove(filepath.Join(dir, m.ShardName(3))); err != nil {
		t.Fatal(err)
	}
	// Corrupt P as well.
	pPath := filepath.Join(dir, m.ShardName(m.K))
	b, _ := os.ReadFile(pPath)
	b[0] ^= 1
	if err := os.WriteFile(pPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	repaired, err := RepairOpts(manifest, Options{})
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if len(repaired) != 2 {
		t.Fatalf("repaired %v, want 2 shards", repaired)
	}
	// After repair, everything must be healthy and decodable.
	status := decodeAndCompare(t, dir, m, content)
	for _, st := range status {
		if !st.Valid {
			t.Errorf("shard %d still invalid after repair", st.Index)
		}
	}
	// Repairing a healthy set is a no-op.
	repaired, err = RepairOpts(manifest, Options{})
	if err != nil || repaired != nil {
		t.Errorf("no-op repair gave %v, %v", repaired, err)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"code":"liberation"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Error("accepted wrong version")
	}
	if err := os.WriteFile(path, []byte(`{"version":1,"code":"other"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Error("accepted wrong code")
	}
	if _, err := LoadManifest(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("accepted missing manifest")
	}
}

func TestShardNames(t *testing.T) {
	m := &Manifest{K: 3, FileName: "x"}
	if m.ShardName(0) != "x.shard.d00" || m.ShardName(3) != "x.shard.p" || m.ShardName(4) != "x.shard.q" {
		t.Errorf("shard names: %s %s %s", m.ShardName(0), m.ShardName(3), m.ShardName(4))
	}
}

func TestEncodeParallelMatchesSequential(t *testing.T) {
	content := make([]byte, 123456)
	rand.New(rand.NewSource(5)).Read(content)
	dirSeq := t.TempDir()
	dirPar := t.TempDir()
	mSeq, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "f.bin", 5, 7, 64, dirSeq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mPar, err := EncodeOpts(bytes.NewReader(content), int64(len(content)), "f.bin", 5, 7, 64, dirPar, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Shard files and checksums must be byte-identical.
	for i := 0; i < mSeq.K+2; i++ {
		if mSeq.Checksums[i] != mPar.Checksums[i] {
			t.Fatalf("shard %d checksum differs", i)
		}
		a, err := os.ReadFile(filepath.Join(dirSeq, mSeq.ShardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirPar, mPar.ShardName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("shard %d contents differ", i)
		}
	}
	// And the parallel set decodes.
	var out bytes.Buffer
	if _, err := DecodeReport(filepath.Join(dirPar, ManifestName("f.bin")), &out, Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), content) {
		t.Fatal("parallel-encoded set decodes wrong")
	}
}
