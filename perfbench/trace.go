package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the enclosing call (-1 for the operation's
// root span).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans for one client goroutine. A nil *tracer records
// nothing, so untraced runs share the code path at the cost of a nil check.
//
// The root span of an operation names its path ("encode", "range", ...);
// every span below it is named "<layer>.<call>". When an operation ends
// the tracer adds each span's self time — its duration minus its
// children's — to that path's per-layer totals; the root's self time is
// the path's unattributed remainder.
type tracer struct {
	t0    time.Time
	ops   *atomic.Int64 // operation IDs, shared by the tracers of one run
	spans []span
	stack []int
	op    int64
	first int // index of the current operation's first span

	self map[string]float64 // "path/layer" → self ns
}

func newTracer(t0 time.Time, ops *atomic.Int64) *tracer {
	return &tracer{t0: t0, ops: ops, self: map[string]float64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span inside the innermost open one; with none open it
// starts a new operation.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	} else {
		t.op = t.ops.Add(1)
		t.first = len(t.spans)
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: parent, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
	if len(t.stack) == 0 {
		t.account()
	}
}

// account folds the finished operation's spans into the self-time totals.
func (t *tracer) account() {
	op := t.spans[t.first:]
	self := make([]float64, len(op))
	for i, s := range op {
		d := float64(s.End - s.Start)
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent-t.first] -= d
		}
	}
	path := op[0].Name
	for i, s := range op {
		t.self[path+"/"+layerOf(s.Name, i == 0)] += self[i]
	}
}

// unattributed is the layer key of a root span's self time.
const unattributed = "unattributed"

func layerOf(name string, root bool) string {
	if root {
		return unattributed
	}
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// durations returns the duration in ms of every span named name.
func (t *tracer) durations(name string) samples {
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// merge folds o's spans and self times into t, renumbering o's span IDs.
func (t *tracer) merge(o *tracer) {
	off := len(t.spans)
	for _, s := range o.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
	for k, v := range o.self {
		t.self[k] += v
	}
}

// write saves every span as a JSON array under the build directory, the
// only place outside the sources the benchmark writes to.
func (t *tracer) write(workload string) (string, error) {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "perfbench-trace-"+workload+".json")
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// countingSink is the benchmark's sink: an in-memory buffer behind a
// writer that counts calls and traces each Write as io.sink_write.
type countingSink struct {
	w      io.Writer
	tr     *tracer
	writes int64
}

func (c *countingSink) Write(p []byte) (int, error) {
	id := c.tr.begin("io.sink_write")
	n, err := c.w.Write(p)
	c.tr.end(id)
	c.writes++
	return n, err
}

// countingSource wraps a stream source, counting and tracing every Read
// and Seek the Reader issues.
type countingSource struct {
	r     io.ReadSeeker
	tr    *tracer
	reads int64
	seeks int64
	bytes int64
}

func (c *countingSource) Read(p []byte) (int, error) {
	id := c.tr.begin("io.source_read")
	n, err := c.r.Read(p)
	c.tr.end(id)
	c.reads++
	c.bytes += int64(n)
	return n, err
}

func (c *countingSource) Seek(off int64, whence int) (int64, error) {
	id := c.tr.begin("io.source_seek")
	n, err := c.r.Seek(off, whence)
	c.tr.end(id)
	c.seeks++
	return n, err
}
