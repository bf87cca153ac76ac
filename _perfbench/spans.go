package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// exported function it calls. Parent is the index of the enclosing span, or
// -1 for an op's root.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory, for one goroutine.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	ops    []string             // label of each op, by op id
	counts []map[string]float64 // per-op counters
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// beginOp opens a new op's root span; label tags the op (the job's app in
// daemon-mix, the workload elsewhere).
func (t *tracer) beginOp(root, label string) {
	t.op = len(t.ops)
	t.ops = append(t.ops, label)
	t.counts = append(t.counts, map[string]float64{})
	t.begin(root)
}

// endOp closes the op's root span.
func (t *tracer) endOp() {
	t.end()
	t.op = -1
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0)})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = time.Since(t.t0)
}

// count adds v to a counter of the current op; outside an op it is
// dropped.
func (t *tracer) count(name string, v float64) {
	if t.op >= 0 {
		t.counts[t.op][name] += v
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// opStats summarizes the traced ops whose label passes keep: the summed
// wall time of their roots, and each span name's summed self time.
type opStats struct {
	ops   int
	wall  time.Duration
	walls []float64 // per-op root wall times, ms
	self  map[string]time.Duration
	cover []float64 // per-op share of the root covered by child spans
}

func (t *tracer) stats(root string, keep func(label string) bool) opStats {
	st := opStats{self: map[string]time.Duration{}}
	self := selfTimes(t.spans)
	rootSelf := map[int]time.Duration{}
	rootWall := map[int]time.Duration{}
	for i, s := range t.spans {
		if s.Op < 0 || !keep(t.ops[s.Op]) {
			continue
		}
		if s.Parent < 0 {
			if s.Name != root {
				continue
			}
			rootSelf[s.Op] += self[i]
			rootWall[s.Op] += s.End - s.Start
			continue
		}
		if t.rootName(i) == root {
			st.self[s.Name] += self[i]
		}
	}
	for op := range t.ops {
		w, ok := rootWall[op]
		if !ok {
			continue
		}
		st.ops++
		st.wall += w
		st.walls = append(st.walls, ms(w))
		st.cover = append(st.cover, 1-ratio(float64(rootSelf[op]), float64(w)))
	}
	return st
}

// rootName returns the name of the root span above span i.
func (t *tracer) rootName(i int) string {
	for t.spans[i].Parent >= 0 {
		i = t.spans[i].Parent
	}
	return t.spans[i].Name
}

// layerShare is the share of the ops' wall time spent in the given layers.
func (st opStats) layerShare(layers ...string) float64 {
	var sum time.Duration
	for name, d := range st.self {
		for _, l := range layers {
			if layerOf(name) == l {
				sum += d
			}
		}
	}
	return ratio(float64(sum), float64(st.wall))
}

// opCount sums a counter over every op.
func (t *tracer) opCount(name string) float64 {
	s := 0.0
	for _, c := range t.counts {
		s += c[name]
	}
	return s
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%d.jsonl", workload, seed, os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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

// layerMetrics fills the per-layer timing metrics of b from st: each
// span name's self time per op, under "<name>_ms" (or "<layer>.ms" for a
// span named after its layer alone).
func (b *bench) layerMetrics(st opStats) {
	for name, d := range st.self {
		key := name + "_ms"
		if !strings.Contains(name, ".") {
			key = name + ".ms"
		}
		b.metrics[key] = ms(d) / float64(st.ops)
	}
	b.metrics["bench.traced_op_ms"] = median(st.walls)
	b.timings["bench.traced_op_ms"] = timing{Samples: len(st.walls), Percentile: 50}
	b.note("traced_ops", float64(st.ops), "count") // the per-op means' sample count
	minCover := 1.0
	for _, c := range st.cover {
		if c < minCover {
			minCover = c
		}
	}
	b.metrics["bench.span_coverage"] = minCover
	b.metrics["bench.stream_layers_share"] = st.layerShare("parlot", "trace", "filter", "nlr")
	b.metrics["bench.analysis_share"] = st.layerShare("attr", "fca", "jaccard", "cluster", "bscore")
}
