package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// hostProbe measures how fast the host runs right now, with a fixed loop
// that belongs to the benchmark and calls no program code: XORs over a
// cache-sized buffer, the same XORs on every CPU at once, and a copy of a
// buffer larger than the caches, the kinds of work the workloads do. A
// shared host's speed drifts by tens of percent within seconds (steal
// time, neighbours on the same cores and memory), which would swamp a
// change to the program, so each timing is reported relative to the
// probes taken around it and scaled to the nominal rates.
type hostProbe struct {
	a, b     []uint64   // cache-sized
	par      [][]uint64 // one cache-sized buffer per CPU
	src, dst []byte     // together larger than the last-level cache
}

const (
	probeWords     = 1 << 17 // 1 MiB per cache-sized buffer
	probeXORRounds = 8
	probeXORBytes  = probeXORRounds * probeWords * 8
	probeCopyBytes = 32 << 20
	// The nominal rates, in bytes per second, that a normalized figure
	// is quoted at: a normalized MB/s is the MB/s the run would show on a
	// host where the probe's XOR parts run at 8 GB/s (per CPU for the
	// parallel one) and its copy at 4 GB/s.
	probeXORNominal  = 8e9
	probeCopyNominal = 4e9
)

var (
	probeOnce sync.Once
	probe     *hostProbe
)

// sharedProbe returns the process's one probe; its buffers are large.
func sharedProbe() *hostProbe {
	probeOnce.Do(func() { probe = newHostProbe() })
	return probe
}

func newHostProbe() *hostProbe {
	p := &hostProbe{a: make([]uint64, probeWords), b: make([]uint64, probeWords),
		src: make([]byte, probeCopyBytes), dst: make([]byte, probeCopyBytes)}
	for i := range p.a {
		p.a[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	p.par = make([][]uint64, runtime.NumCPU())
	for i := range p.par {
		p.par[i] = make([]uint64, probeWords)
	}
	for i := range p.src {
		p.src[i] = byte(i)
	}
	return p
}

// speed is the host's current speed relative to the nominal one, for
// each part of the probe: XOR on one CPU, XOR on every CPU at once, and
// the memory copy.
type speed struct{ xor, par, copy float64 }

// The exponents of the probe's parts in the normalization factor; they
// sum to 1. They come from measurement: over repeated seeded runs of each
// workload, this weighting left every end-to-end metric's spread within
// the noise of the best weighting for that workload (see README.md).
const (
	xorWeight  = 0.25
	parWeight  = 0.5
	copyWeight = 0.25
)

// factor is the one figure a timing is normalized by: the weighted
// geometric mean of the parts' speeds.
func (s speed) factor() float64 {
	return math.Pow(s.xor, xorWeight) * math.Pow(s.par, parWeight) * math.Pow(s.copy, copyWeight)
}

// mean averages the probes taken before and after a timed call.
func (s speed) mean(o speed) speed {
	return speed{(s.xor + o.xor) / 2, (s.par + o.par) / 2, (s.copy + o.copy) / 2}
}

// run runs the loop once and returns each part's speed relative to its
// nominal rate.
func (p *hostProbe) run() speed {
	t0 := time.Now()
	xorRounds(p.b, p.a)
	t1 := time.Now()
	var wg sync.WaitGroup
	for _, b := range p.par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xorRounds(b, p.a)
		}()
	}
	wg.Wait()
	t2 := time.Now()
	copy(p.dst, p.src)
	t3 := time.Now()
	return speed{xor: probeXORBytes / t1.Sub(t0).Seconds() / probeXORNominal,
		par:  probeXORBytes / t2.Sub(t1).Seconds() / probeXORNominal,
		copy: probeCopyBytes / t3.Sub(t2).Seconds() / probeCopyNominal}
}

// xorRounds is the probe's XOR loop: b ^= a, probeXORRounds times.
func xorRounds(b, a []uint64) {
	for r := 0; r < probeXORRounds; r++ {
		for i := range b {
			b[i] ^= a[i] + uint64(r)
		}
	}
}
