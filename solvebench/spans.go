package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval. Spans of one solve share its root: the
// solve span's ID is the Parent of every span below it. Agent step spans
// are aggregated per agent and solve (Count steps, Dur their summed time).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"-"`
	Dur    time.Duration `json:"-"`
	Agent  int           `json:"agent,omitempty"`
	Count  int64         `json:"count,omitempty"`
	Job    int           `json:"job"`
	// StartUS and DurUS are the wire form: microseconds since the run's
	// first span, and the duration in microseconds.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	next   int64
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span ID, so a root can be named before its children end.
func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID == 0 {
		t.next++
		s.ID = t.next
	}
	s.StartUS = float64(s.Start.Sub(t.origin)) / 1e3
	s.DurUS = float64(s.Dur) / 1e3
	t.spans = append(t.spans, s)
}

// solve records one traced runtime solve: the root (agent construction and
// the runtime call), the runtime call under it, and one aggregated step span
// per agent under that.
func (t *tracer) solve(k int, tr tracedRun) {
	root, run := t.id(), t.id()
	t.record(span{ID: root, Name: "solve", Job: k, Start: tr.begin, Dur: tr.total()})
	t.record(span{ID: run, Parent: root, Name: "runtime.run", Job: k, Start: tr.start, Dur: tr.wall})
	for v := range tr.stats {
		st := &tr.stats[v]
		if st.steps == 0 {
			continue
		}
		t.record(span{Parent: run, Name: "core.step", Job: k, Agent: v, Count: st.steps, Start: tr.start, Dur: st.busy})
	}
}

// write saves the spans as JSON lines under cfg.spanDir and returns the
// file's path.
func (t *tracer) write(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("span file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, f.Close()
}
