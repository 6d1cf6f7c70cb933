// Package nodestore maps every path of a store.Store onto one of N
// simulated nodes — independent fault domains with their own inner
// Store, availability, latency distribution, and circuit breaker — so
// the erasure unit that matters at array scale (a whole node) can be
// injected, observed, and decoded around.
//
// Placement is pluggable ("round-robin" or "spread", see placement.go)
// and deterministic, so the shard encoder can record where every shard
// landed in the manifest (v3 placement block) and a later decode session
// reconstructs the same map. On top of the per-node fault model
// (faults.go: whole-node outage, flapping membership, injected per-op
// latency) the store adds the robustness machinery a multi-node path
// needs:
//
//   - per-op latency budgets (Config.OpTimeout): an op whose injected
//     delay exceeds the budget costs the caller only the budget and
//     fails with a transient store.Fault{Kind: KindTimeout};
//   - hedged reads: when a read's delay exceeds the node's recent
//     latency quantile, a second request is fired and the faster of the
//     two wins (store.hedge.* metrics);
//   - a per-node circuit breaker (closed → open → half-open on an
//     injectable clock): consecutive node-level failures trip it, and
//     while open every op fails fast with a permanent
//     store.Fault{Kind: KindBreakerOpen} — the degradation ladder then
//     treats the node's shards as erased instead of burning its retry
//     budget against a black hole.
//
// By default every node shares one backing store (virtual fault
// domains over one directory — shard paths keep working unchanged);
// Config.Backing gives each node an independent inner store, composable
// with faultstore for per-node byte-level chaos.
package nodestore

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Sentinel causes carried by the node-level faults.
var (
	// ErrNodeDown is wrapped by every operation refused because its
	// node is out (outage or a flap's down phase).
	ErrNodeDown = errors.New("nodestore: node down")
	// ErrBreakerOpen is wrapped by fast-fails from an open breaker.
	ErrBreakerOpen = errors.New("nodestore: circuit breaker open")
	// ErrOpBudget is wrapped by ops abandoned at the per-op latency
	// budget (Config.OpTimeout).
	ErrOpBudget = errors.New("nodestore: op exceeded its latency budget")
)

// HedgeConfig arms hedged reads. The zero value disables hedging.
type HedgeConfig struct {
	// Quantile of the node's recent read latencies above which a hedge
	// fires (e.g. 0.9). <= 0 disables hedging.
	Quantile float64
	// Min floors the hedge trigger so ordinary jitter never hedges
	// (default 1ms when hedging is enabled).
	Min time.Duration
	// Window is the per-node latency sample ring size (default 64).
	// Hedging stays off until a node has at least 8 samples.
	Window int
}

func (h HedgeConfig) enabled() bool { return h.Quantile > 0 }

func (h HedgeConfig) min() time.Duration {
	if h.Min <= 0 {
		return time.Millisecond
	}
	return h.Min
}

func (h HedgeConfig) window() int {
	if h.Window <= 0 {
		return 64
	}
	return h.Window
}

// Config arms a node-mapped store.
type Config struct {
	// Nodes is the number of simulated nodes (values below 1 mean 1).
	Nodes int
	// Base is the inner store every node shares when Backing is nil
	// (nil = the real filesystem). Virtual fault domains: all nodes see
	// the same files, only availability and latency differ.
	Base store.Store
	// Backing, when non-nil, gives node i an independent inner store —
	// compose with faultstore.New for per-node byte-level chaos.
	Backing func(node int) store.Store
	// Placement selects the policy mapping new paths to nodes:
	// PolicyRoundRobin (default) or PolicySpread.
	Placement string
	// Seed drives the latency jitter and probability draws; equal seeds
	// give equal schedules for equal operation sequences.
	Seed int64
	// Faults is the node-level fault schedule (see NodeFault).
	Faults []NodeFault
	// OpTimeout, when positive, is the per-op latency budget: an op
	// whose injected delay exceeds it costs only OpTimeout of wall
	// clock and fails with a transient KindTimeout fault (which also
	// counts against the node's breaker).
	OpTimeout time.Duration
	// Hedge arms hedged reads.
	Hedge HedgeConfig
	// Breaker arms the per-node circuit breakers.
	Breaker BreakerConfig
	// Registry, when non-nil, receives the nodestore.*, store.hedge.*,
	// and store.breaker.* metrics.
	Registry *obs.Registry
	// Sleep, when non-nil, replaces the real latency wait; tests and
	// soaks inject an instant (or accumulating) fake clock here.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now, when non-nil, replaces the real clock driving the breaker
	// cooldown; tests inject a seeded fake clock here.
	Now func() time.Time
}

func (c Config) nodes() int {
	if c.Nodes < 1 {
		return 1
	}
	return c.Nodes
}

// Store is the node-mapped store.Store. It implements
// store.ContextBinder (injected faults land in the bound trace) and
// store.NodeMapper (the shard encoder records placement from it).
type Store struct {
	cfg   Config
	reg   *obs.Registry
	sleep func(ctx context.Context, d time.Duration) error
	now   func() time.Time
	inner []store.Store

	mu     sync.Mutex
	rng    *rand.Rand
	assign map[string]int
	seq    int // round-robin cursor
	nodes  []*node
}

// node is one simulated fault domain's live state.
type node struct {
	ops     int // gated operations seen (drives the fault schedule)
	down    bool
	breaker breaker
	lat     *latWindow
	met     nodeMetrics
}

// nodeMetrics holds one node's interned labeled metric children —
// resolved once at construction, so the per-op hot path is a plain
// atomic add. Every handle is nil (a valid no-op) when the store is
// unregistered. The snapshot layer renders the per-node children
// (nodestore.down.total{node="1"}) and the family aggregates under the
// pre-label flat names (nodestore.down.total).
type nodeMetrics struct {
	ops          *obs.Counter   // nodestore.ops.total{node}
	down         *obs.Counter   // nodestore.down.total{node}
	refused      *obs.Counter   // nodestore.refused.total{node}
	fastfail     *obs.Counter   // store.breaker.fastfail.total{node}
	timeout      *obs.Counter   // nodestore.timeout.total{node}
	replaced     *obs.Counter   // nodestore.replaced.total{node}
	outages      *obs.Counter   // nodestore.outage.transitions{node}
	injected     *obs.Counter   // nodestore.latency.injected.total{node}
	hedgeFired   *obs.Counter   // store.hedge.fired{node}
	hedgeWins    *obs.Counter   // store.hedge.wins{node}
	breakerOpen  *obs.Counter   // store.breaker.open.total{node}
	breakerClose *obs.Counter   // store.breaker.close.total{node}
	seconds      *obs.Histogram // store.node.seconds{node}: injected per-op latency
}

func newNodeMetrics(reg *obs.Registry, nodeID int) nodeMetrics {
	l := obs.Li("node", nodeID)
	return nodeMetrics{
		ops:          reg.CounterWith("nodestore.ops.total", l),
		down:         reg.CounterWith("nodestore.down.total", l),
		refused:      reg.CounterWith("nodestore.refused.total", l),
		fastfail:     reg.CounterWith("store.breaker.fastfail.total", l),
		timeout:      reg.CounterWith("nodestore.timeout.total", l),
		replaced:     reg.CounterWith("nodestore.replaced.total", l),
		outages:      reg.CounterWith("nodestore.outage.transitions", l),
		injected:     reg.CounterWith("nodestore.latency.injected.total", l),
		hedgeFired:   reg.CounterWith("store.hedge.fired", l),
		hedgeWins:    reg.CounterWith("store.hedge.wins", l),
		breakerOpen:  reg.CounterWith("store.breaker.open.total", l),
		breakerClose: reg.CounterWith("store.breaker.close.total", l),
		seconds:      reg.HistogramWith("store.node.seconds", obs.LatencyBuckets, l),
	}
}

// New wraps the configured backing store(s) behind n simulated nodes.
func New(cfg Config) *Store {
	s := &Store{
		cfg:    cfg,
		reg:    cfg.Registry,
		sleep:  cfg.Sleep,
		now:    cfg.Now,
		assign: make(map[string]int),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
	if s.sleep == nil {
		s.sleep = store.SleepContext
	}
	if s.now == nil {
		s.now = time.Now
	}
	base := cfg.Base
	if base == nil {
		base = store.OS{}
	}
	n := cfg.nodes()
	s.inner = make([]store.Store, n)
	s.nodes = make([]*node, n)
	for i := 0; i < n; i++ {
		if cfg.Backing != nil {
			s.inner[i] = cfg.Backing(i)
		} else {
			s.inner[i] = base
		}
		s.nodes[i] = &node{lat: newLatWindow(cfg.Hedge.window()), met: newNodeMetrics(s.reg, i)}
	}
	return s
}

// NodeFor implements store.NodeMapper: the node index path lives on,
// assigned by the placement policy on first sight.
func (s *Store) NodeFor(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nodeForLocked(path)
}

// NodeCount implements store.NodeMapper.
func (s *Store) NodeCount() int { return s.cfg.nodes() }

// PlacementPolicy implements store.NodeMapper.
func (s *Store) PlacementPolicy() string { return policyName(s.cfg.Placement) }

// Assign pins path to a node, overriding the placement policy — tests
// and operators use it to reproduce a recorded manifest placement.
func (s *Store) Assign(path string, nodeID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.assign[path] = clampNode(nodeID, s.cfg.nodes())
}

func clampNode(n, total int) int {
	if n < 0 || n >= total {
		return 0
	}
	return n
}

// verdict is one gated operation's resolved outcome, decided under the
// store lock and applied (sleeps, events, errors) outside it.
type verdict struct {
	node     int
	op       string
	path     string
	refuse   *store.Fault // refusal (node down / breaker open)
	sleepFor time.Duration
	timeout  bool // sleepFor was capped at the op budget; fail after sleeping
	hedged   bool
	hedgeWon bool
	// transitions observed while deciding, for events outside the lock
	wentDown, cameUp bool
	breakerOpened    bool // tripped (or re-tripped from half-open)
	breakerGaugeUp   bool // first trip since last close: gauge moves
	breakerClosed    bool
	replacedFrom     int // >= 0: create was re-placed from this node
}

// decide resolves one gated operation under the lock: placement, the
// breaker, the availability schedule, and the latency budget.
func (s *Store) decide(op, path string, read, create bool) verdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := verdict{op: op, path: path, replacedFrom: -1}
	v.node = s.nodeForLocked(path)
	s.gateLocked(&v, read)
	if v.refuse != nil && create {
		// A create refused by an unavailable node re-places the path
		// onto a healthy spare: repair writes its healed shard where it
		// can actually land, and the live assignment follows the data.
		if spare, ok := s.spareLocked(v.node); ok {
			v.replacedFrom = v.node
			v.node = spare
			s.assign[path] = spare
			v.refuse = nil
			s.gateLocked(&v, read)
		}
	}
	return v
}

// gateLocked runs the breaker + fault schedule for v.node, filling in
// the verdict. Caller holds the lock.
func (s *Store) gateLocked(v *verdict, read bool) {
	n := s.nodes[v.node]
	n.ops++
	idx := n.ops - 1
	now := s.now()

	if !n.breaker.allow(s.cfg.Breaker, now) {
		v.refuse = &store.Fault{Op: v.op, Path: v.path, Kind: store.KindBreakerOpen,
			Transient: false, Err: fmt.Errorf("%w: node %d", ErrBreakerOpen, v.node)}
		return
	}

	down, perm := availAt(s.cfg.Faults, v.node, idx)
	if down != n.down {
		n.down = down
		if down {
			v.wentDown = true
		} else {
			v.cameUp = true
		}
	}
	if down {
		wasTripped := n.breaker.state != bClosed
		v.breakerOpened = n.breaker.fail(s.cfg.Breaker, now)
		v.breakerGaugeUp = v.breakerOpened && !wasTripped
		v.refuse = &store.Fault{Op: v.op, Path: v.path, Kind: store.KindNodeDown,
			Transient: !perm, Err: fmt.Errorf("%w: node %d", ErrNodeDown, v.node)}
		return
	}

	delay := latencyAt(s.cfg.Faults, v.node, idx, s.rng)
	if delay > 0 && read && s.cfg.Hedge.enabled() {
		if thr, ok := n.lat.threshold(s.cfg.Hedge); ok && delay > thr {
			// Hedge: fire a second request at the threshold; the faster
			// of (primary, threshold + hedge) wins the race.
			v.hedged = true
			hedge := thr + latencyAt(s.cfg.Faults, v.node, idx, s.rng)
			if hedge < delay {
				v.hedgeWon = true
				delay = hedge
			}
		}
	}
	if s.cfg.OpTimeout > 0 && delay > s.cfg.OpTimeout {
		// The op would outlive its budget: the caller waits only the
		// budget, the breaker counts a node-level failure.
		v.timeout = true
		v.sleepFor = s.cfg.OpTimeout
		wasTripped := n.breaker.state != bClosed
		v.breakerOpened = n.breaker.fail(s.cfg.Breaker, now)
		v.breakerGaugeUp = v.breakerOpened && !wasTripped
		n.lat.add(s.cfg.OpTimeout.Seconds())
		return
	}
	v.sleepFor = delay
	n.lat.add(delay.Seconds())
	v.breakerClosed = n.breaker.ok(s.cfg.Breaker)
}

// spareLocked finds a healthy node other than home: currently up per
// the schedule (without charging an op) and with a non-open breaker.
func (s *Store) spareLocked(home int) (int, bool) {
	total := s.cfg.nodes()
	now := s.now()
	for d := 1; d < total; d++ {
		cand := (home + d) % total
		n := s.nodes[cand]
		if down, _ := availAt(s.cfg.Faults, cand, n.ops); down {
			continue
		}
		if !n.breaker.wouldAllow(s.cfg.Breaker, now) {
			continue
		}
		return cand, true
	}
	return 0, false
}

// report bills the verdict's metrics — per-node labeled children; the
// snapshot aggregates preserve the pre-label flat names — and emits its
// events into ctx's trace. Called outside the lock (node metrics are
// immutable after New). The verdict's replacement counter is billed to
// the node the create was moved OFF of: that is the node whose failure
// the re-placement evidences.
func (s *Store) report(ctx context.Context, v verdict) {
	m := &s.nodes[v.node].met
	m.ops.Inc()
	if v.wentDown {
		s.addGauge("nodestore.nodes_down", 1)
		m.outages.Inc()
		obs.Emit(ctx, slog.LevelWarn, "nodestore.node_down", slog.Int("node", v.node))
	}
	if v.cameUp {
		s.addGauge("nodestore.nodes_down", -1)
		obs.Emit(ctx, slog.LevelInfo, "nodestore.node_up", slog.Int("node", v.node))
	}
	if v.breakerOpened {
		m.breakerOpen.Inc()
		if v.breakerGaugeUp {
			s.addGauge("store.breaker.open", 1)
		}
		obs.Emit(ctx, slog.LevelWarn, "store.breaker",
			slog.String("state", "open"), slog.Int("node", v.node))
	}
	if v.breakerClosed {
		m.breakerClose.Inc()
		s.addGauge("store.breaker.open", -1)
		obs.Emit(ctx, slog.LevelInfo, "store.breaker",
			slog.String("state", "closed"), slog.Int("node", v.node))
	}
	if v.replacedFrom >= 0 {
		s.nodes[v.replacedFrom].met.replaced.Inc()
		obs.Emit(ctx, slog.LevelWarn, "nodestore.replace",
			slog.String("path", v.path), slog.Int("from", v.replacedFrom), slog.Int("to", v.node))
	}
	if v.hedged {
		m.hedgeFired.Inc()
		if v.hedgeWon {
			m.hedgeWins.Inc()
		}
		obs.Emit(ctx, slog.LevelInfo, "store.hedge",
			slog.Int("node", v.node), slog.String("op", v.op), slog.Bool("won", v.hedgeWon))
	}
	if v.sleepFor > 0 {
		m.injected.Inc()
	}
	m.seconds.Observe(v.sleepFor.Seconds())
	if v.timeout {
		m.timeout.Inc()
		obs.Emit(ctx, slog.LevelWarn, "nodestore.timeout",
			slog.Int("node", v.node), slog.String("op", v.op), slog.String("path", v.path))
	}
	if v.refuse != nil {
		m.refused.Inc()
		if v.refuse.Kind == store.KindNodeDown {
			m.down.Inc()
		} else {
			m.fastfail.Inc()
		}
		obs.EmitErr(ctx, slog.LevelWarn, "nodestore.refuse", v.refuse.Err,
			slog.Int("node", v.node), slog.String("op", v.op),
			slog.String("path", v.path), slog.String("kind", v.refuse.Kind.String()))
	}
}

func (s *Store) addGauge(name string, delta float64) {
	if s.reg != nil {
		s.reg.Gauge(name).Add(delta)
	}
}

// gate runs one operation through the node's fault model: decide under
// the lock, then sleep/refuse outside it. Returns the node the op was
// charged to.
func (s *Store) gate(ctx context.Context, op, path string, read, create bool) (int, error) {
	v := s.decide(op, path, read, create)
	s.report(ctx, v)
	if v.sleepFor > 0 {
		if err := s.sleep(ctx, v.sleepFor); err != nil {
			return v.node, store.NewTransient(op, path, err)
		}
	}
	if v.timeout {
		return v.node, &store.Fault{Op: op, Path: path, Kind: store.KindTimeout,
			Transient: true, Err: fmt.Errorf("%w: node %d", ErrOpBudget, v.node)}
	}
	if v.refuse != nil {
		return v.node, v.refuse
	}
	return v.node, nil
}

// innerFor resolves node's inner store, bound to ctx when it supports
// causal attribution.
func (s *Store) innerFor(node int, ctx context.Context) store.Store {
	in := s.inner[node]
	if b, ok := in.(store.ContextBinder); ok && ctx != nil {
		return b.Bind(ctx)
	}
	return in
}

// Bind implements store.ContextBinder: the returned view shares all
// node state (schedules, breakers, assignments) but records events into
// the trace carried by ctx.
func (s *Store) Bind(ctx context.Context) store.Store {
	if ctx == nil {
		ctx = context.Background()
	}
	return &bound{s: s, ctx: ctx}
}

type bound struct {
	s   *Store
	ctx context.Context
}

func (b *bound) Open(path string) (store.File, error)   { return b.s.open(b.ctx, path) }
func (b *bound) Create(path string) (store.File, error) { return b.s.create(b.ctx, path) }
func (b *bound) Rename(oldPath, newPath string) error   { return b.s.rename(b.ctx, oldPath, newPath) }
func (b *bound) Remove(path string) error               { return b.s.remove(b.ctx, path) }

func (s *Store) Open(path string) (store.File, error) { return s.open(context.Background(), path) }

func (s *Store) open(ctx context.Context, path string) (store.File, error) {
	node, err := s.gate(ctx, "open", path, false, false)
	if err != nil {
		return nil, err
	}
	f, err := s.innerFor(node, ctx).Open(path)
	if err != nil {
		return nil, err
	}
	return &file{s: s, ctx: ctx, f: f, path: path, node: node}, nil
}

func (s *Store) Create(path string) (store.File, error) { return s.create(context.Background(), path) }

func (s *Store) create(ctx context.Context, path string) (store.File, error) {
	node, err := s.gate(ctx, "create", path, false, true)
	if err != nil {
		return nil, err
	}
	f, err := s.innerFor(node, ctx).Create(path)
	if err != nil {
		return nil, err
	}
	return &file{s: s, ctx: ctx, f: f, path: path, node: node}, nil
}

func (s *Store) Rename(oldPath, newPath string) error {
	return s.rename(context.Background(), oldPath, newPath)
}

func (s *Store) rename(ctx context.Context, oldPath, newPath string) error {
	node, err := s.gate(ctx, "rename", oldPath, false, false)
	if err != nil {
		return err
	}
	if err := s.innerFor(node, ctx).Rename(oldPath, newPath); err != nil {
		return err
	}
	// The renamed file lives where oldPath was written: the assignment
	// follows the data, which is how a repaired shard ends up placed on
	// the spare node its temp file landed on.
	s.mu.Lock()
	s.assign[newPath] = node
	delete(s.assign, oldPath)
	s.mu.Unlock()
	return nil
}

func (s *Store) Remove(path string) error { return s.remove(context.Background(), path) }

func (s *Store) remove(ctx context.Context, path string) error {
	node, err := s.gate(ctx, "remove", path, false, false)
	if err != nil {
		return err
	}
	return s.innerFor(node, ctx).Remove(path)
}

// file wraps one open file with its node's fault model: reads, writes,
// and syncs are gated (and latency-shaped); Size and Close pass
// through.
type file struct {
	s    *Store
	ctx  context.Context
	f    store.File
	path string
	node int
}

func (f *file) ReadAt(b []byte, off int64) (int, error) {
	if _, err := f.s.gate(f.ctx, "read", f.path, true, false); err != nil {
		return 0, err
	}
	return f.f.ReadAt(b, off)
}

func (f *file) WriteAt(b []byte, off int64) (int, error) {
	if _, err := f.s.gate(f.ctx, "write", f.path, false, false); err != nil {
		return 0, err
	}
	return f.f.WriteAt(b, off)
}

func (f *file) Sync() error {
	if _, err := f.s.gate(f.ctx, "sync", f.path, false, false); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *file) Size() (int64, error) { return f.f.Size() }

func (f *file) Close() error { return f.f.Close() }

// latWindow is a fixed ring of recent per-op latencies (seconds) backing
// the hedge trigger quantile.
type latWindow struct {
	ring  []float64
	n     int
	total int
}

func newLatWindow(size int) *latWindow { return &latWindow{ring: make([]float64, size)} }

func (w *latWindow) add(v float64) {
	w.ring[w.n] = v
	w.n = (w.n + 1) % len(w.ring)
	w.total++
}

// threshold returns the hedge trigger: the configured quantile of the
// recent samples, floored at Min. Hedging stays off until 8 samples.
func (w *latWindow) threshold(cfg HedgeConfig) (time.Duration, bool) {
	have := w.total
	if have > len(w.ring) {
		have = len(w.ring)
	}
	if have < 8 {
		return 0, false
	}
	sorted := append([]float64(nil), w.ring[:have]...)
	insertionSort(sorted)
	i := int(cfg.Quantile * float64(have))
	if i >= have {
		i = have - 1
	}
	thr := time.Duration(sorted[i] * float64(time.Second))
	if min := cfg.min(); thr < min {
		thr = min
	}
	return thr, true
}

func insertionSort(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
