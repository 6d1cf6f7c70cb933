package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/codes"
	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/store"
)

// Small shapes of the three workloads, so a pass takes milliseconds.
func smallLib() streamConfig {
	c := streamLib()
	c.fileBytes = 1<<20 + 12345 // a ragged last stripe
	return c
}

func smallRS3() streamConfig {
	c := streamRS3()
	c.fileBytes = 300 << 10
	c.workers = 2
	return c
}

func smallArray() arrayConfig {
	c := arrayOLTP()
	c.stripes = 8
	c.opsPerPhase = 300
	return c
}

func smallWorkloads() map[string]workload {
	return map[string]workload{
		"stream-lib": {setup: func(seed uint64, dir string) (bench, error) { return newStreamBench(smallLib(), seed, dir) }},
		"stream-rs3": {setup: func(seed uint64, dir string) (bench, error) { return newStreamBench(smallRS3(), seed, dir) }},
		"array-oltp": {setup: func(seed uint64, _ string) (bench, error) { return newArrayBench(smallArray(), seed) }},
	}
}

func TestCountingStoreRoundTrip(t *testing.T) {
	var s store.Store = &countingStore{}
	if _, ok := s.(store.ContextBinder); ok {
		t.Fatal("countingStore implements store.ContextBinder; shard would take another branch")
	}
	if _, ok := s.(store.NodeMapper); ok {
		t.Fatal("countingStore implements store.NodeMapper; shard would take another branch")
	}

	payload := make([]byte, 700<<10)
	fillRandom(newRand(7, streamPayload), payload)
	encode := func(dir string, st store.Store) {
		t.Helper()
		_, err := shard.EncodeOpts(bytes.NewReader(payload), int64(len(payload)), "file.bin",
			4, 5, 1024, dir, shard.Options{Store: st})
		if err != nil {
			t.Fatal(err)
		}
	}
	plain, counted := t.TempDir(), t.TempDir()
	encode(plain, store.OS{})
	c := &ioCounts{}
	encode(counted, &countingStore{inner: store.OS{}, c: c})
	if c.writeBytes.Load() == 0 || c.syncCalls.Load() == 0 || c.openCalls.Load() == 0 {
		t.Fatalf("encode through the decorator counted nothing: %+v", c)
	}
	files, err := os.ReadDir(plain)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4+2+1 {
		t.Fatalf("plain encode wrote %d files, want 7", len(files))
	}
	for _, f := range files {
		a, errA := os.ReadFile(filepath.Join(plain, f.Name()))
		b, errB := os.ReadFile(filepath.Join(counted, f.Name()))
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between store.OS and the counting decorator", f.Name())
		}
	}

	c = &ioCounts{}
	var out bytes.Buffer
	if _, err := shard.DecodeReport(filepath.Join(counted, shard.ManifestName("file.bin")), &out,
		shard.Options{Store: &countingStore{inner: store.OS{}, c: c}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), payload) {
		t.Fatal("decode through the decorator differs from the source")
	}
	if c.readBytes.Load() < int64(len(payload)) {
		t.Fatalf("decode read %d store bytes for a %d-byte file", c.readBytes.Load(), len(payload))
	}
}

// Each workload must catch one flipped output byte and count it.
func TestFlippedByteIsCaught(t *testing.T) {
	lib, rs3, arr := smallLib(), smallRS3(), smallArray()
	lib.flipOutput, rs3.flipOutput, arr.flipShadow = true, true, true
	cases := map[string]func(dir string) (bench, error){
		"stream-lib": func(dir string) (bench, error) { return newStreamBench(lib, 3, dir) },
		"stream-rs3": func(dir string) (bench, error) { return newStreamBench(rs3, 3, dir) },
		"array-oltp": func(string) (bench, error) { return newArrayBench(arr, 3) },
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			b, err := setup(filepath.Join(t.TempDir(), name))
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			rec := newRecorder()
			b.pass(rec, nil)
			if rec.failed == 0 || !strings.Contains(rec.firstErr, "differs") && !strings.Contains(rec.firstErr, "mismatch") {
				t.Fatalf("flipped byte not caught: %d of %d failed, first %q", rec.failed, rec.attempted, rec.firstErr)
			}

			res, _, err := execute(options{workload: name, seed: 3, dir: filepath.Join(t.TempDir(), "work"), maxPasses: 1},
				workload{setup: func(uint64, string) (bench, error) { return setup(filepath.Join(t.TempDir(), name)) }})
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("result reports correct=%v failed=%d with a flipped byte", res.Correct, res.Failed)
			}
		})
	}
}

// Two set-ups from one seed give identical inputs, and one pass over
// each gives identical exact counts.
func TestSeedReproducible(t *testing.T) {
	for name, w := range smallWorkloads() {
		t.Run(name, func(t *testing.T) {
			counts := func(seed uint64) (any, map[string]float64) {
				b, err := w.setup(seed, filepath.Join(t.TempDir(), name))
				if err != nil {
					t.Fatal(err)
				}
				defer b.close()
				var inputs any
				switch b := b.(type) {
				case *streamBench:
					inputs = []any{append([]byte(nil), b.payload...), b.losses}
				case *arrayBench:
					inputs = []any{append([]byte(nil), b.shadow...), b.pool, b.healthy, b.degraded, b.failed, b.sites}
				}
				rec := newRecorder()
				b.pass(rec, nil)
				if rec.failed != 0 {
					t.Fatalf("pass failed: %s", rec.firstErr)
				}
				exact := map[string]float64{}
				for k, v := range b.perLayer(rec) {
					if !strings.HasSuffix(k, "_frac") && !strings.HasPrefix(k, "runtime.") && !strings.Contains(k, "alloc") {
						exact[k] = v
					}
				}
				layers, err := layerPass(b.layers(), seed, 0, newRecorder())
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []string{"codes.encode_xors_per_stripe", "codes.decode_xors_per_stripe"} {
					exact[k] = layers[k]
				}
				return inputs, exact
			}
			in1, c1 := counts(5)
			in2, c2 := counts(5)
			if !reflect.DeepEqual(in1, in2) {
				t.Fatal("one seed generated two different input sets")
			}
			if !reflect.DeepEqual(c1, c2) {
				t.Fatalf("exact counts differ between two runs of one seed:\n%v\n%v", c1, c2)
			}
			if in3, _ := counts(6); reflect.DeepEqual(in1, in3) {
				t.Fatal("seeds 5 and 6 generated the same inputs")
			}
		})
	}
}

func TestStreamCounts(t *testing.T) {
	b, err := newStreamBench(smallLib(), 1, filepath.Join(t.TempDir(), "lib"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	rec := newRecorder()
	b.pass(rec, nil)
	if rec.failed != 0 {
		t.Fatal(rec.firstErr)
	}
	m := b.perLayer(rec)
	// The probe and the stream each read all k+m shards once: (k+2)/k
	// of the (padded) file, twice, plus the manifest.
	if amp := m["store.decode.read_amp"]; amp < 2.5 || amp > 2.6 {
		t.Errorf("decode read amplification %.4f, want about 2.5", amp)
	}
	// Repair reads the k+m-2 = 8 surviving shards twice (probe and
	// stream) to rebuild two: 8 store bytes per rebuilt byte.
	if amp := m["store.repair.read_amp"]; amp < 8 || amp > 8.01 {
		t.Errorf("repair read amplification %.4f, want 8", amp)
	}
	if m["store.encode.sync_calls"] != 8+2+1 {
		t.Errorf("encode synced %v times, want one per shard plus the manifest", m["store.encode.sync_calls"])
	}
}

func TestLayerPassLiberationBound(t *testing.T) {
	rec := newRecorder()
	m, err := layerPass(layerShape{code: "liberation", k: 8, p: 11, elem: 64, workers: 2, lost: []int{1, 5}}, 1, 0, rec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.failed != 0 {
		t.Fatal(rec.firstErr)
	}
	if got := m["codes.encode_xors_per_stripe"]; got != 154 {
		t.Errorf("liberation k=8 p=11 encode: %v XORs per stripe, want 2p(k-1) = 154", got)
	}
	for _, k := range []string{"codes.encode_GBps", "codes.decode_GBps", "codes.correct_GBps",
		"codes.update_ns", "pipeline.encode_GBps", "xorblk.xorinto_GBps", "xorblk.xorinto4_GBps"} {
		if m[k] <= 0 {
			t.Errorf("%s = %v, want > 0", k, m[k])
		}
	}
}

func TestUnionLen(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {45, 48}}
	if got := unionLen(ivs, 2, 45); got != 3+20+5 {
		t.Fatalf("unionLen = %d, want 28", got)
	}
	if got := unionLen(nil, 0, 10); got != 0 {
		t.Fatalf("unionLen of nothing = %d", got)
	}
}

// A traced op's self time plus its children's union is its wall time,
// and the per-layer fractions of every stream op lie in [0, 1]. The
// root span of a program call covers that call only: no host probe runs
// inside it.
func TestTracedRunAccountsForWallTime(t *testing.T) {
	for _, name := range []string{"stream-lib", "stream-rs3", "array-oltp"} {
		dir := filepath.Join(t.TempDir(), "work")
		res, _, err := execute(options{workload: name, seed: 2, trace: true, dir: dir, maxPasses: 1},
			smallWorkloads()[name])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("%s: traced run failed", name)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m.Name)
			}
		}
		raw, err := os.ReadFile(filepath.Join(dir, "..", "trace", name+"-seed2.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var probes, calls []span
		for _, l := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			var sp span
			if err := json.Unmarshal([]byte(l), &sp); err != nil {
				t.Fatal(err)
			}
			switch {
			case sp.Parent != 0:
			case sp.Name == "bench.host_probe":
				probes = append(probes, sp)
			default:
				calls = append(calls, sp)
			}
		}
		if len(probes) == 0 || len(calls) == 0 {
			t.Fatalf("%s: span log has %d probe and %d call spans", name, len(probes), len(calls))
		}
		for _, c := range calls {
			for _, p := range probes {
				if p.Start < c.End && c.Start < p.End {
					t.Fatalf("%s: host probe [%d, %d) runs inside %s [%d, %d)", name,
						p.Start, p.End, c.Name, c.Start, c.End)
				}
			}
		}
		if name == "array-oltp" {
			continue
		}
		for _, op := range streamOps {
			self := res.Metrics["shard."+op+".self_frac"].Value
			if self <= 0 || self > 1 {
				t.Errorf("%s %s: self fraction %v outside (0, 1]", name, op, self)
			}
		}
	}
}

// lazyCode is a code whose Decode writes nothing, and whose Encode writes
// nothing after its first encodes calls.
type lazyCode struct {
	core.Code
	lazyDecode bool
	encodes    *atomic.Int64
}

func (c lazyCode) Encode(s *core.Stripe, ops *core.Ops) error {
	if c.encodes != nil && c.encodes.Add(-1) < 0 {
		return nil
	}
	return c.Code.Encode(s, ops)
}

func (c lazyCode) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	if c.lazyDecode {
		return nil
	}
	return c.Code.Decode(s, erased, ops)
}

// The standalone decode and pipeline checks fail for a call that writes
// nothing.
func TestLayerPassCatchesLazyCalls(t *testing.T) {
	sh := layerShape{code: "liberation", k: 8, p: 11, elem: 64, workers: 2, lost: []int{1, 5}}
	lib, err := codes.New(sh.code, sh.k, sh.p)
	if err != nil {
		t.Fatal(err)
	}
	// With a zero budget each measurement runs three rounds, so the
	// standalone encodes are the counted one and three over the batch;
	// lazyCode hides Updater, so the pipeline's are the next.
	encodes := &atomic.Int64{}
	encodes.Store(1 + 3*layerBatch)
	for what, code := range map[string]core.Code{
		"decode":          lazyCode{Code: lib, lazyDecode: true},
		"pipeline encode": lazyCode{Code: lib, encodes: encodes},
	} {
		rec := newRecorder()
		if _, err := codeLayerPass(code, sh, 1, 0, rec); err != nil {
			t.Fatal(err)
		}
		if rec.failed == 0 || !strings.HasPrefix(rec.firstErr, what+",") && !strings.HasPrefix(rec.firstErr, what+":") {
			t.Errorf("lazy %s: %d of %d checks failed, first %q", what, rec.failed, rec.attempted, rec.firstErr)
		}
	}
}

func TestEndToEndMetricsPresent(t *testing.T) {
	for name, w := range smallWorkloads() {
		res, _, err := execute(options{workload: name, seed: 4, dir: filepath.Join(t.TempDir(), "work"), maxPasses: 1}, w)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d", name, res.Correct, res.Attempted)
		}
		for _, m := range endToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", name, m.Name, v, m.Unit)
			}
		}
	}
}

// BENCHMARK.json at the repository root declares the same metrics, in
// the same order and units, as the catalog the benchmark prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	strip := func(ms []metricSpec) []metricSpec {
		out := make([]metricSpec, len(ms))
		for i, m := range ms {
			out[i] = metricSpec{m.Name, m.Unit, m.Better}
		}
		return out
	}
	if !reflect.DeepEqual(strip(doc.EndToEnd), endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the catalog:\n%v\n%v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(strip(doc.PerLayer), perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the catalog")
	}
	listed := map[string]bool{}
	for _, w := range doc.Workloads {
		listed[w.Name] = true
	}
	for name, w := range workloads {
		if listed[name] != w.gated {
			t.Errorf("workload %s: gated=%v, but listed in BENCHMARK.json=%v", name, w.gated, listed[name])
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("BENCHMARK.json names workload %s, which the benchmark lacks", name)
	}
}
