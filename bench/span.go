package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-owned interval around a call into a layer.
// Spans are opened from the benchmark's files only (the choosing-metrics
// rule for the PR that defines the benchmark); spans inside the program
// are the obs tracer's and are reported separately under obs.*.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rank     int    `json:"rank"`
	Step     int    `json:"step"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// spanLog keeps spans in memory until the run ends; begin/end cost one
// mutex round-trip each, which the traced phase pays and the untraced
// timed run never sees.
type spanLog struct {
	workload string
	origin   time.Time
	mu       sync.Mutex
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

// begin opens a span and returns its id (ids are 1-based so 0 can mean
// "no parent").
func (l *spanLog) begin(name string, parent, rank, step int) int {
	now := int64(time.Since(l.origin))
	l.mu.Lock()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		Workload: l.workload, Rank: rank, Step: step, StartNS: now,
	})
	id := len(l.spans)
	l.mu.Unlock()
	return id
}

func (l *spanLog) end(id int) {
	now := int64(time.Since(l.origin))
	l.mu.Lock()
	l.spans[id-1].EndNS = now
	l.mu.Unlock()
}

func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// it its direct children cover. Children run sequentially inside their
// parent here (one goroutine per rank), so covered time is their sum,
// clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur()
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		self[s.Parent] -= s.dur()
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// writeJSONL writes the spans one JSON object per line to
// <dir>/trace-<workload>.jsonl.
func (l *spanLog) writeJSONL(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+l.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
