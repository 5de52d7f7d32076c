package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of the
// boundary. Parent 0 means the span has no parent (the root).
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	// Counts are the layer's own counters as read at this boundary.
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is the
// tracing-off pass: every method is a no-op, so the measured code path is
// the same call with or without tracing.
type tracer struct {
	workload string
	epoch    time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.add(parent, name, time.Now(), time.Time{})
}

// end closes span id, attaching the counts read at the boundary.
func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.epoch).Nanoseconds()
	s.Counts = counts
}

// record stores a span whose interval is already known: a run timed by the
// measuring code itself, or a synthesized child such as timewarp.run,
// reconstructed from RunStats.WallTime.
func (t *tracer) record(parent int, name string, start, end time.Time, counts map[string]float64) int {
	if t == nil {
		return 0
	}
	id := t.add(parent, name, start, end)
	t.spans[id-1].Counts = counts
	return id
}

func (t *tracer) add(parent int, name string, start, end time.Time) int {
	s := span{Workload: t.workload, ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds()}
	if !end.IsZero() {
		s.EndNS = end.Sub(t.epoch).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval covered by its children. Overlapping children (the two TCP nodes)
// are counted once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// coverage is the share of span id's interval that its children cover.
func coverage(spans []span, id int) float64 {
	s := spans[id-1]
	if s.EndNS <= s.StartNS {
		return 0
	}
	return 1 - float64(selfTimes(spans)[id])/float64(s.EndNS-s.StartNS)
}

// write stores the spans as JSON lines in dir/trace-<workload>.jsonl.
func (t *tracer) write(dir string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+t.workload+".jsonl"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
