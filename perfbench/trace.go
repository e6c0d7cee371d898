package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the module boundary. Parent 0 marks an op's root span; spans of one
// op share Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. An op opened with
// traced=false gets op id 0, and every span call on op 0 is a no-op, so
// untraced ops pay one comparison per layer boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op opens an op and its root span, starting at start; it returns (0, 0)
// when not traced. Close the root with end.
func (t *tracer) op(name string, traced bool, start time.Time) (op, root int) {
	if !traced {
		return 0, 0
	}
	t.mu.Lock()
	t.ops++
	op = t.ops
	t.mu.Unlock()
	return op, t.add(op, 0, name, start, start)
}

// begin opens a span at the current time.
func (t *tracer) begin(op, parent int, name string) int {
	if op == 0 {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (for example,
// one that starts inside an HTTP transport and ends in a callback).
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	if op == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// ledger is the per-op time split of the traced ops: the self time of
// every layer (span duration minus the part its children cover) summed by
// span name, the self time of the op roots ("other"), and the op total.
// Self times of an op's spans add up to the op's total exactly.
type ledger struct {
	ops   int
	total time.Duration
	other time.Duration
	self  map[string]time.Duration
}

// ledger aggregates the ops whose root span name starts with "op.".
func (t *tracer) ledger() ledger {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := ledger{self: map[string]time.Duration{}}
	measured := map[int]bool{}
	for _, s := range t.spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op.") {
			measured[s.Op] = true
			l.ops++
			l.total += time.Duration(s.End - s.Start)
		}
	}
	covered := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if !measured[s.Op] {
			continue
		}
		self := time.Duration(max(0, s.End-s.Start-covered[s.ID]))
		if s.Parent == 0 {
			l.other += self
		} else {
			l.self[s.Name] += self
		}
	}
	return l
}

// write stores the spans and the run's identity as one JSON file.
func (t *tracer) write(path string, header any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Run   any    `json:"run"`
		Spans []span `json:"spans"`
	}{header, t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
