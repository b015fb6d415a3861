package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer's public function.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"` // 0 for a root span
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the tracer was created
	EndUS   float64 `json:"end_us"`
}

// tracer records spans in memory; a nil tracer records nothing, so the
// untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanEnd closes a span started by begin.
type spanEnd struct {
	t     *tracer
	id    int64
	par   int64
	name  string
	start time.Time
}

// begin opens a span named name under parent (0 for a root) and returns its
// closer; ID() gives the span's identifier for its children.
func (t *tracer) begin(name string, parent int64) spanEnd {
	if t == nil {
		return spanEnd{start: time.Now()}
	}
	return spanEnd{t: t, id: t.next.Add(1), par: parent, name: name, start: time.Now()}
}

func (s spanEnd) ID() int64 { return s.id }

// end closes the span and returns its duration, which untraced runs use as
// the operation's latency.
func (s spanEnd) end() time.Duration {
	end := time.Now()
	if s.t == nil {
		return end.Sub(s.start)
	}
	sp := span{
		ID: s.id, Parent: s.par, Name: s.name,
		StartUS: float64(s.start.Sub(s.t.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(s.t.t0).Nanoseconds()) / 1e3,
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sp)
	s.t.mu.Unlock()
	return end.Sub(s.start)
}

// meanUS is the mean duration of the spans named name, and their count.
func (t *tracer) meanUS(name string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.EndUS - s.StartUS
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// write saves every span as JSON to path, creating its directory.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
