package main

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// encodeCLIFixture writes a random blob and encodes it through the real
// subcommand, returning the blob content and the manifest path.
func encodeCLIFixture(t *testing.T, dir string, size int) ([]byte, string) {
	t.Helper()
	blob := filepath.Join(dir, "blob.bin")
	content := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(content)
	if err := os.WriteFile(blob, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("encode", []string{"-k", "4", "-elem", "512", "-out", dir, "-workers", "2", blob}); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return content, filepath.Join(dir, "blob.bin.manifest.json")
}

// TestCLIRoundTrip drives encode -> damage -> decode -> repair through the
// real subcommand entry points.
func TestCLIRoundTrip(t *testing.T) {
	dir := t.TempDir()
	content, manifest := encodeCLIFixture(t, dir, 50_000)
	if err := run("info", []string{manifest}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := run("verify", []string{manifest}); err != nil {
		t.Fatalf("verify clean: %v", err)
	}

	// Lose a data shard, corrupt the P shard.
	if err := os.Remove(filepath.Join(dir, "blob.bin.shard.d02")); err != nil {
		t.Fatal(err)
	}
	pShard := filepath.Join(dir, "blob.bin.shard.p")
	b, err := os.ReadFile(pShard)
	if err != nil {
		t.Fatal(err)
	}
	b[10] ^= 0xff
	if err := os.WriteFile(pShard, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Degraded but recoverable: verify warns yet succeeds (exit 0).
	if err := run("verify", []string{manifest}); err != nil {
		t.Fatalf("verify degraded: %v", err)
	}

	out := filepath.Join(dir, "recovered.bin")
	if err := run("decode", []string{"-out", out, manifest}); err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("recovered file differs from the original")
	}

	if err := run("repair", []string{manifest}); err != nil {
		t.Fatalf("repair: %v", err)
	}
	// Everything healthy now: a second repair is a no-op and all shards
	// verify.
	if err := run("repair", []string{manifest}); err != nil {
		t.Fatalf("second repair: %v", err)
	}
	if err := run("verify", []string{manifest}); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	if err := run("bogus", nil); err != errUsage {
		t.Errorf("unknown subcommand gave %v", err)
	}
	if err := run("encode", []string{"-k", "4"}); err == nil {
		t.Error("encode without a file accepted")
	}
	if err := run("decode", []string{filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Error("decode with missing manifest accepted")
	}
	if err := run("repair", []string{}); err == nil {
		t.Error("repair without manifest accepted")
	}
	if err := run("info", []string{filepath.Join(t.TempDir(), "absent.json")}); err == nil {
		t.Error("info with missing manifest accepted")
	}
}

// TestCLIExitCodes pins the exit-code contract: 0 for clean and
// recovered-degraded runs, 2 for unrecoverable sets, 64 for usage
// errors, 1 otherwise.
func TestCLIExitCodes(t *testing.T) {
	if got := realMain(nil); got != exitUsage {
		t.Errorf("no args: exit %d, want %d", got, exitUsage)
	}
	if got := realMain([]string{"bogus"}); got != exitUsage {
		t.Errorf("bad subcommand: exit %d, want %d", got, exitUsage)
	}
	if got := realMain([]string{"decode", "-no-such-flag", "x"}); got != exitUsage {
		t.Errorf("bad flag: exit %d, want %d", got, exitUsage)
	}
	if got := realMain([]string{"decode", filepath.Join(t.TempDir(), "absent.json")}); got != exitFail {
		t.Errorf("missing manifest: exit %d, want %d", got, exitFail)
	}

	dir := t.TempDir()
	_, manifest := encodeCLIFixture(t, dir, 20_000)

	// One shard down: decode recovers in degraded mode and exits 0.
	if err := os.Remove(filepath.Join(dir, "blob.bin.shard.d01")); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "recovered.bin")
	if got := realMain([]string{"decode", "-out", out, manifest}); got != exitOK {
		t.Errorf("degraded decode: exit %d, want %d", got, exitOK)
	}

	// Three shards down: unrecoverable, exit 2, and no partial output
	// file left behind.
	for _, name := range []string{"blob.bin.shard.d02", "blob.bin.shard.p"} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	os.Remove(out)
	if got := realMain([]string{"decode", "-out", out, manifest}); got != exitUnrecoverable {
		t.Errorf("unrecoverable decode: exit %d, want %d", got, exitUnrecoverable)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("partial output left behind after failed decode: %v", err)
	}
	if got := realMain([]string{"verify", manifest}); got != exitUnrecoverable {
		t.Errorf("unrecoverable verify: exit %d, want %d", got, exitUnrecoverable)
	}

	// Encoding into a directory that does not exist is a usage error
	// naming the directory, raised before any shard is written.
	missing := filepath.Join(dir, "nope", "deeper")
	err := run("encode", []string{"-k", "4", "-out", missing, filepath.Join(dir, "blob.bin")})
	if exitCode(err) != exitUsage || err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("encode -out into a missing directory: err %v (exit %d), want a usage error naming %s",
			err, exitCode(err), missing)
	}
}

// TestCLIEncodeBadElemSize: a non-positive -elem is an ordinary failure
// (exit 1) with a one-line error, raised before any shard file exists.
func TestCLIEncodeBadElemSize(t *testing.T) {
	blob := filepath.Join(t.TempDir(), "blob.bin")
	if err := os.WriteFile(blob, []byte("some bytes to stripe"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, elem := range []string{"0", "-8"} {
		t.Run("elem="+elem, func(t *testing.T) {
			out := t.TempDir()
			err := run("encode", []string{"-k", "4", "-elem", elem, "-out", out, blob})
			if got := exitCode(err); got != exitFail || !errors.Is(err, core.ErrParams) {
				t.Fatalf("encode -elem %s: err %v (exit %d), want core.ErrParams (exit %d)",
					elem, err, got, exitFail)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("error spans several lines: %q", err)
			}
			if left, _ := os.ReadDir(out); len(left) != 0 {
				t.Errorf("encode -elem %s left %d files in -out", elem, len(left))
			}
		})
	}
}

// TestCLIChaosGate checks that fault injection stays behind the
// environment opt-in: without RAIDCLI_CHAOS the flags are a usage error;
// with it, a seeded profile runs the whole pipeline.
func TestCLIChaosGate(t *testing.T) {
	dir := t.TempDir()
	content, manifest := encodeCLIFixture(t, dir, 20_000)

	if err := run("decode", []string{"-fault-profile", "latency", manifest}); exitCode(err) != exitUsage {
		t.Errorf("ungated -fault-profile: err %v (exit %d), want usage error", err, exitCode(err))
	}

	t.Setenv("RAIDCLI_CHAOS", "1")
	if err := run("decode", []string{"-fault-profile", "no-such-profile", manifest}); exitCode(err) != exitUsage {
		t.Errorf("unknown profile: err %v, want usage error", err)
	}
	out := filepath.Join(dir, "recovered.bin")
	if err := run("decode",
		[]string{"-fault-profile", "bitrot", "-fault-seed", "7", "-retries", "4", "-retry-backoff", "100us",
			"-out", out, manifest}); err != nil {
		t.Fatalf("chaos decode: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("chaos decode produced wrong bytes")
	}
}

// TestCLINodesGate checks the node fault-domain flags stay behind the
// environment opt-in, and that a gated multi-node encode/decode round
// trip under a whole-node outage schedule recovers the original bytes.
func TestCLINodesGate(t *testing.T) {
	dir := t.TempDir()
	content, manifest := encodeCLIFixture(t, dir, 20_000)

	if err := run("decode", []string{"-nodes", "6", manifest}); exitCode(err) != exitUsage {
		t.Errorf("ungated -nodes: err %v (exit %d), want usage error", err, exitCode(err))
	}
	if err := run("decode", []string{"-node-fault-profile", "outage", manifest}); exitCode(err) != exitUsage {
		t.Errorf("-node-fault-profile without -nodes: err %v, want usage error", err)
	}

	t.Setenv("RAIDCLI_CHAOS", "1")
	if err := run("decode", []string{"-nodes", "6", "-node-fault-profile", "no-such", manifest}); exitCode(err) != exitUsage {
		t.Errorf("unknown node profile: err %v, want usage error", err)
	}

	// Re-encode on 6 nodes so the manifest records spread placement,
	// then decode under a seeded single-node outage: one node holds one
	// shard, so the decode must still be byte-identical.
	blob := filepath.Join(dir, "blob.bin")
	if err := run("encode", []string{"-k", "4", "-elem", "512", "-out", dir, "-nodes", "6", blob}); err != nil {
		t.Fatalf("multi-node encode: %v", err)
	}
	out := filepath.Join(dir, "recovered.bin")
	if err := run("decode",
		[]string{"-nodes", "6", "-node-fault-profile", "outage", "-fault-seed", "3",
			"-out", out, manifest}); err != nil {
		t.Fatalf("node-outage decode: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("node-outage decode produced wrong bytes")
	}
}
