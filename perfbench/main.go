// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the public entry points of shard, raidsim, codes,
// pipeline and xorblk, checks every output, and prints its metrics: the
// end-to-end ones with --trace 0, the per-layer split with --trace 1.
// The last line of standard output is one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and the lines before it repeat the figures for a human reader. Run it
// through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload stream-lib --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupReps is how many times a run builds its inputs; setup_s is the
// median, so one slow build (cold page cache, first allocation) does not
// move it.
const setupReps = 5

// layerBudget is the measuring time of each standalone layer metric.
const layerBudget = 150 * time.Millisecond

// bench is one set-up workload.
type bench interface {
	// pass runs one closed-loop pass over the workload's inputs, checking
	// every output and tallying every call in rec. log is nil when the
	// pass is untraced.
	pass(rec *recorder, log *spanLog)
	endToEnd(rec *recorder) map[string]float64
	perLayer(rec *recorder) map[string]float64
	report(rec *recorder) []line
	layers() layerShape
	close()
}

// line is one figure of the human-readable report; n is its sample
// count, negative when it has none to state.
type line struct {
	name  string
	value float64
	unit  string
	n     float64
}

// workload is one of the benchmark's input sets; BENCHMARK.json and
// README.md give why each was chosen.
type workload struct {
	setup func(seed uint64, dir string) (bench, error)
	// gated workloads are the ones BENCHMARK.json lists. An ungated one
	// runs the same way, by hand; README.md says why it is not gated.
	gated bool
}

func streamLib() streamConfig {
	return streamConfig{code: "liberation", k: 8, p: 11, elem: 4096, fileBytes: 256 << 20,
		workers: 1, dataLost: 2, spanPrefix: "liberation."}
}

func streamRS3() streamConfig {
	return streamConfig{code: "rs3", k: 8, elem: 4096, fileBytes: 128 << 20,
		workers: runtime.NumCPU(), dataLost: 2, parityLost: 1, spanPrefix: "rsm."}
}

func arrayOLTP() arrayConfig {
	return arrayConfig{code: "liberation", k: 8, p: 11, elem: 4096, stripes: 256,
		opsPerPhase: 1000}
}

// The fixed parts of the array-oltp request mix and its fault rounds.
const (
	readFrac    = 0.7 // share of requests that are reads
	zipfS       = 1.2
	corruptions = 4 // CorruptDisk sites per scrub, one per stripe
	scrubRounds = 3 // corrupt-then-scrub rounds per pass
	// rebuildRounds is how many times a pass rebuilds the failed disks;
	// rounds after the first fail them again right before.
	rebuildRounds = 3
)

var workloads = map[string]workload{
	// The paper's code as raidcli runs it; shard and store I/O dominate.
	"stream-lib": {
		setup: func(seed uint64, dir string) (bench, error) {
			return newStreamBench(streamLib(), seed, dir)
		},
		gated: true,
	},
	// The GF(2^8) table multiply and the pipeline worker pool dominate.
	// It keeps every CPU busy, so on a small shared host its figures
	// drift with the neighbours more than the host probe shows.
	"stream-rs3": {
		setup: func(seed uint64, dir string) (bench, error) {
			return newStreamBench(streamRS3(), seed, dir)
		},
	},
	// 4 KiB Zipf small I/O on raidsim; no shard or store code runs.
	"array-oltp": {
		setup: func(seed uint64, _ string) (bench, error) {
			return newArrayBench(arrayOLTP(), seed)
		},
		gated: true,
	},
}

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	dir       string
	maxPasses int // tests: stop each measuring loop after this many passes
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: stream-lib, stream-rs3 or array-oltp")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measuring time of the run")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "work"), "scratch directory for shard sets and span logs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s) and --trace 0|1\n", workloadNames())
		return 2
	}
	o.trace = trace == 1
	res, lines, err := execute(o, workloads[o.workload])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, l := range lines {
		n := ""
		if l.n >= 0 {
			n = fmt.Sprintf("n=%g", l.n)
		}
		fmt.Fprintf(stdout, "%s %-34s %14.6g %-5s %s\n", o.workload, l.name, l.value, l.unit, n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// loop runs passes until the next one would likely end past budget;
// it always runs at least one. A workload takes a quiet point (see
// recorder.quiet) after each timed call or group of calls; loop takes
// the one before the first. Their collections also keep the heap (and
// peak RSS) independent of how many passes fit the run.
func loop(b bench, rec *recorder, log *spanLog, budget time.Duration, maxPasses int) {
	rec.quiet()
	start := time.Now()
	for pass := 0; maxPasses == 0 || pass < maxPasses; pass++ {
		if el := time.Since(start); pass > 0 && el+el/time.Duration(pass) > budget {
			return
		}
		b.pass(rec, log)
		rec.endPass()
	}
}

// execute sets the workload up setupReps times, then measures it: one
// untraced loop for the end-to-end metrics, or an untraced and a traced
// loop of half the time each for the per-layer ones.
func execute(o options, w workload) (*result, []line, error) {
	dir := filepath.Join(o.dir, o.workload)
	var b bench
	var setups []float64
	rec := newRecorder()
	speed := rec.quietSpeed()
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
			b = nil
			// Return the previous inputs' memory to the OS before the next
			// set-up, so peak RSS holds one input set, not two.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		nb, err := w.setup(o.seed, dir)
		if err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		d := time.Since(t0)
		b = nb
		after := rec.quietSpeed()
		setups = append(setups, d.Seconds()*speed.mean(after).factor())
		speed = after
	}
	defer b.close()

	budget := time.Duration(o.seconds * float64(time.Second))
	specs, values := endToEnd, map[string]float64{}
	var lines []line
	if !o.trace {
		loop(b, rec, nil, budget, o.maxPasses)
		values = b.endToEnd(rec)
		values["setup_s"] = median(setups)
		values["peak_rss_MiB"] = peakRSSMiB()
		lines = append(b.report(rec), line{"setup_s", values["setup_s"], "s", setupReps},
			line{"peak_rss_MiB", values["peak_rss_MiB"], "MiB", 1})
	} else {
		specs = perLayer
		plain := newRecorder()
		loop(b, plain, nil, budget/2, o.maxPasses)
		log := newSpanLog()
		rec.log = log
		loop(b, rec, log, budget/2, o.maxPasses)
		for _, m := range perLayer {
			values[m.Name] = 0
		}
		for k, v := range b.perLayer(rec) {
			values[k] = v
		}
		layers, err := layerPass(b.layers(), o.seed, layerBudget, rec)
		if err != nil {
			return nil, nil, fmt.Errorf("layer pass: %w", err)
		}
		for k, v := range layers {
			values[k] = v
		}
		values["obs.trace_overhead_frac"] = median(rec.passWork)/median(plain.passWork) - 1
		rec.attempted += plain.attempted
		rec.failed += plain.failed
		if rec.firstErr == "" {
			rec.firstErr = plain.firstErr
		}
		path := filepath.Join(o.dir, "..", "trace", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := log.write(path); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
		lines = b.report(rec)
	}
	values["host.speed"] = rec.med("host.speed")
	if rec.attempted > 0 {
		values["error_rate"] = float64(rec.failed) / float64(rec.attempted)
	}
	if !o.trace {
		n := float64(len(rec.samples["host.speed"]))
		lines = append(lines, line{"host_speed", values["host.speed"], "x", n},
			line{"host_xor_speed", rec.med("host.xor_speed"), "x", n},
			line{"host_par_speed", rec.med("host.par_speed"), "x", n},
			line{"host_copy_speed", rec.med("host.copy_speed"), "x", n},
			line{"error_rate", values["error_rate"], "frac", float64(rec.attempted)})
	}
	if rec.firstErr != "" {
		lines = append(lines, line{"first failure: " + rec.firstErr, 0, "", -1})
	}

	res := &result{Correct: rec.failed == 0, Attempted: rec.attempted, Failed: rec.failed,
		Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a rate over no successful call; the failures are tallied
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		if o.trace {
			lines = append(lines, line{m.Name, v, m.Unit, -1})
		}
	}
	if res.Attempted == 0 {
		return nil, nil, errors.New("no operation ran")
	}
	return res, lines, nil
}
