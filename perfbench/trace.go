package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call at a layer boundary. Times are nanoseconds
// since the log's epoch; Op is the ID of the top-level call the span
// belongs to (a root span's Op is its own ID, its Parent 0).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps every span of a traced run in memory; write dumps it as
// one file when the run ends. A nil *spanLog is the untraced run.
type spanLog struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// start opens a top-level call. It returns nil on a nil log, and every
// opTrace method is a no-op on nil, so untraced code paths pay nothing
// beyond the nil checks.
func (l *spanLog) start(name string) *opTrace {
	if l == nil {
		return nil
	}
	id := l.ids.Add(1)
	return &opTrace{log: l, id: id, name: name, begin: time.Now()}
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opTrace gathers the child spans of one top-level call. Children may
// be recorded from several goroutines (shard's encode reads its source,
// codes and writes its shards concurrently).
type opTrace struct {
	log   *spanLog
	id    int64
	name  string
	begin time.Time

	mu       sync.Mutex
	children []span
}

// now is the clock read for a child span (zero when untraced).
func (t *opTrace) now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// child records a span named name that began at start and ends now,
// returning its duration.
func (t *opTrace) child(name string, start time.Time) time.Duration {
	if t == nil {
		return 0
	}
	end := time.Now()
	s := span{ID: t.log.ids.Add(1), Parent: t.id, Op: t.id, Name: name,
		Start: start.Sub(t.log.epoch).Nanoseconds(), End: end.Sub(t.log.epoch).Nanoseconds()}
	t.mu.Lock()
	t.children = append(t.children, s)
	t.mu.Unlock()
	return end.Sub(start)
}

// finish closes the call and moves its spans into the log. It returns
// the call's wall time and its self time: the wall time minus the part
// of it that the union of the child spans covers.
func (t *opTrace) finish() (wall, self time.Duration) {
	end := time.Now()
	lo, hi := t.begin.Sub(t.log.epoch).Nanoseconds(), end.Sub(t.log.epoch).Nanoseconds()
	t.mu.Lock()
	children := t.children
	t.children = nil
	t.mu.Unlock()
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.Start, c.End}
	}
	covered := unionLen(ivs, lo, hi)
	t.log.mu.Lock()
	t.log.spans = append(t.log.spans, span{ID: t.id, Op: t.id, Name: t.name, Start: lo, End: hi})
	t.log.spans = append(t.log.spans, children...)
	t.log.mu.Unlock()
	return time.Duration(hi - lo), time.Duration(hi - lo - covered)
}
