package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the q-th percentile of xs by linear interpolation
// between closest ranks (0 for none).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// unionLen is the total length of the union of the intervals clipped to
// [lo, hi): the part of a span its children cover.
func unionLen(ivs []interval, lo, hi int64) int64 {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range s {
		if iv.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeCounts is a reading of the allocation and GC counters, taken
// around a call to attribute its allocation cost.
type runtimeCounts struct{ allocBytes, gcCycles uint64 }

var runtimeSampleNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() runtimeCounts {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeCounts{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (a runtimeCounts) sub(b runtimeCounts) runtimeCounts {
	return runtimeCounts{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles}
}

// recorder collects one run's samples and its operation tally.
//
// Timings are normalized by the host probe, but the probe never runs next
// to a timed call: work a call leaves behind (a GC cycle under way) would
// slow the probe and hide part of a regression. So timings stay pending
// until the next quiet point, where the garbage is collected and the host
// probed; they are then normalized by the mean of that probe and the one
// at the quiet point before them.
type recorder struct {
	attempted, failed int
	firstErr          string
	// samples are normalized timings and exact counts; raw holds the
	// timings as measured, for the human-readable report.
	samples, raw map[string][]float64
	pending      []pendingSample
	pendingWork  float64 // seconds of the pending timed calls
	last         *speed  // the probe at the last quiet point
	// passWork is the summed normalized duration of the timed calls of
	// each pass, the base of the tracing-overhead ratio; work sums the
	// open pass's.
	passWork []float64
	work     float64
	// log, set in the traced run, records each probe as a span.
	log *spanLog
}

// pendingSample is a timing awaiting normalization: a rate (work per
// second) or a duration.
type pendingSample struct {
	key  string
	v    float64
	rate bool
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]float64{}, raw: map[string][]float64{}}
}

// quiet is a quiet point, taken after each timed call or group of
// calls, before the next one starts: it probes the host
// (see quietSpeed) and normalizes the pending timings, which were taken
// since the last quiet point, by the mean of the two probes.
func (r *recorder) quiet() {
	s := r.quietSpeed()
	if r.last != nil {
		f := r.last.mean(s).factor()
		for _, p := range r.pending {
			r.raw[p.key] = append(r.raw[p.key], p.v)
			if p.rate {
				r.add(p.key, p.v/f)
			} else {
				r.add(p.key, p.v*f)
			}
		}
		r.work += r.pendingWork * f
	}
	r.pending, r.pendingWork, r.last = nil, 0, &s
}

// endPass closes a pass, taking a quiet point if timings are pending.
func (r *recorder) endPass() {
	if len(r.pending) > 0 {
		r.quiet()
	}
	r.passWork = append(r.passWork, r.work)
	r.work = 0
}

// quietSpeed collects the garbage the last calls left, then runs the host
// probe three times and returns the host's current speed (the median of
// the three, per part). It runs only where no program call is running.
func (r *recorder) quietSpeed() speed {
	runtime.GC()
	tr := r.log.start("bench.host_probe")
	var x, pa, c [3]float64
	for i := range x {
		s := sharedProbe().run()
		x[i], pa[i], c[i] = s.xor, s.par, s.copy
	}
	if tr != nil {
		tr.finish()
	}
	s := speed{median(x[:]), median(pa[:]), median(c[:])}
	r.add("host.speed", s.factor())
	r.add("host.xor_speed", s.xor)
	r.add("host.par_speed", s.par)
	r.add("host.copy_speed", s.copy)
	return s
}

// addRate records a rate, to be normalized at the next quiet point.
func (r *recorder) addRate(key string, v float64) {
	r.pending = append(r.pending, pendingSample{key, v, true})
}

// addTime records a duration, to be normalized at the next quiet point.
func (r *recorder) addTime(key string, v float64) {
	r.pending = append(r.pending, pendingSample{key, v, false})
}

// addWork adds the seconds of one timed call to the open pass's work.
func (r *recorder) addWork(seconds float64) { r.pendingWork += seconds }

func (r *recorder) add(key string, v float64) { r.samples[key] = append(r.samples[key], v) }

// med is the median sample under key.
func (r *recorder) med(key string) float64 { return median(r.samples[key]) }

// rawMed is the median timing under key as measured, not normalized.
func (r *recorder) rawMed(key string) float64 { return median(r.raw[key]) }

// result tallies one operation; a non-nil err (a call failure or an
// output mismatch) counts it as failed.
func (r *recorder) result(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == "" {
			r.firstErr = err.Error()
		}
	}
}
