// External test package: the concurrency tests drive obs through
// pool.Do, and pool imports obs, so an internal test package would
// cycle.
package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"difftrace/internal/obs"
	"difftrace/internal/pool"
)

// TestNilRunIsInert pins the "nil is off" contract: every method of a nil
// *Run — and of the nil handles it returns — must be callable without
// panicking and without observable effect.
func TestNilRunIsInert(t *testing.T) {
	var r *obs.Run
	r.SetConfig("k", "v")
	r.StartSpan("stage").End()
	r.Counter("c").Add(5)
	if got := r.Counter("c").Value(); got != 0 {
		t.Errorf("nil counter value = %d", got)
	}
	r.Gauge("g").Set(7)
	if got := r.Gauge("g").Value(); got != 0 {
		t.Errorf("nil gauge value = %d", got)
	}
	r.Histogram("h").Observe(9)
	r.Pool("site").Record(4, 10, time.Millisecond, time.Millisecond)
	r.AddIngest(obs.Ingest{Source: "x"})
	r.AddDegraded("stage", "obj", "boom")
	if m := r.Manifest(); m != nil {
		t.Errorf("nil run manifest = %+v, want nil", m)
	}
	r.WriteSummary(&bytes.Buffer{}) // must not panic
	obs.Scrub(nil)                  // likewise
}

func TestSpanAggregation(t *testing.T) {
	r := obs.NewRun("test")
	for i := 0; i < 3; i++ {
		r.StartSpan("a/b").End()
	}
	r.StartSpan("a").End()
	m := r.Manifest()
	if len(m.Stages) != 2 {
		t.Fatalf("stages = %+v, want 2 aggregated paths", m.Stages)
	}
	// Sorted by path.
	if m.Stages[0].Path != "a" || m.Stages[1].Path != "a/b" {
		t.Errorf("stage order = %q, %q", m.Stages[0].Path, m.Stages[1].Path)
	}
	if m.Stages[1].Count != 3 {
		t.Errorf("a/b count = %d, want 3", m.Stages[1].Count)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := obs.NewRun("test")
	h := r.Histogram("h")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	snap := r.Manifest().Histograms["h"]
	if snap.Count != 7 || snap.Sum != 1010 {
		t.Fatalf("count=%d sum=%d, want 7/1010", snap.Count, snap.Sum)
	}
	// Log₂ buckets: le=0 holds {0,-5}, le=1 holds {1}, le=3 holds {2,3},
	// le=7 holds {4}, le=1023 holds {1000}.
	want := map[int64]int64{0: 2, 1: 1, 3: 2, 7: 1, 1023: 1}
	got := map[int64]int64{}
	for _, b := range snap.Buckets {
		got[b.Le] = b.Count
	}
	for le, n := range want {
		if got[le] != n {
			t.Errorf("bucket le=%d count=%d, want %d (all: %v)", le, got[le], n, snap.Buckets)
		}
	}
}

func TestScrub(t *testing.T) {
	r := obs.NewRun("test")
	r.SetConfig("workers", "8")
	r.SetConfig("filter", "11.mpiall.0K10")
	r.Counter("nlr.intern.hit").Add(10)
	r.Counter("stage.wall_ns").Add(12345)
	r.Gauge("pool.workers").Set(8)
	r.StartSpan("stage").End()
	r.Pool("site").Record(8, 100, time.Millisecond, time.Millisecond)

	m := r.Manifest()
	obs.Scrub(m)
	if m.WallNs != 0 || m.Host != nil {
		t.Error("wall/host survived scrub")
	}
	if m.Stages[0].WallNs != 0 || m.Stages[0].Count != 1 {
		t.Errorf("stage after scrub = %+v", m.Stages[0])
	}
	p := m.Pool[0]
	if p.Workers != 0 || p.BusyNs != 0 || p.WorkerWallNs != 0 || p.Utilization != 0 {
		t.Errorf("pool timing survived scrub: %+v", p)
	}
	if p.Calls != 1 || p.Items != 100 {
		t.Errorf("schedule-independent pool fields scrubbed: %+v", p)
	}
	if m.Config["workers"] != "" || m.Config["filter"] != "11.mpiall.0K10" {
		t.Errorf("config scrub wrong: %v", m.Config)
	}
	if m.Counters["stage.wall_ns"] != 0 || m.Counters["nlr.intern.hit"] != 10 {
		t.Errorf("counter scrub wrong: %v", m.Counters)
	}
	if m.Gauges["pool.workers"] != 0 {
		t.Errorf("gauge scrub wrong: %v", m.Gauges)
	}
}

// TestObsUnderPoolWorkers drives spans, counters, and histograms from
// pool.Do workers at Workers:8 — the -race proof that concurrent
// instrumentation is safe — and checks the resulting manifest is exactly
// what a sequential run produces.
func TestObsUnderPoolWorkers(t *testing.T) {
	const items = 200
	build := func(workers int) *obs.Manifest {
		r := obs.NewRun("test")
		pool.Do(nil, r, "test.site", workers, items, func(i int) {
			sp := r.StartSpan("work/item")
			r.Counter("work.count").Add(1)
			r.Histogram("work.size").Observe(int64(i))
			sp.End()
		})
		m := r.Manifest()
		obs.Scrub(m)
		return m
	}

	seq := build(1)
	par := build(8)
	a, _ := json.Marshal(seq)
	b, _ := json.Marshal(par)
	if !bytes.Equal(a, b) {
		t.Errorf("scrubbed manifests differ across worker counts:\n%s\nvs\n%s", a, b)
	}
	if par.Counters["work.count"] != items {
		t.Errorf("counter = %d, want %d", par.Counters["work.count"], items)
	}
	if par.Stages[0].Count != items {
		t.Errorf("span count = %d, want %d", par.Stages[0].Count, items)
	}
	if got := par.Histograms["work.size"].Count; got != items {
		t.Errorf("histogram count = %d, want %d", got, items)
	}
	if par.Pool[0].Site != "test.site" || par.Pool[0].Items != items {
		t.Errorf("pool stat = %+v", par.Pool[0])
	}
}

func TestManifestJSONStable(t *testing.T) {
	r := obs.NewRun("test")
	r.SetConfig("filter", "f")
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.StartSpan("s").End()
	m := r.Manifest()
	obs.Scrub(m)
	var buf1, buf2 bytes.Buffer
	if err := m.WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.String() != buf2.String() {
		t.Error("re-encoding the same manifest changed bytes")
	}
	if !strings.Contains(buf1.String(), `"tool": "test"`) {
		t.Errorf("unexpected JSON: %s", buf1.String())
	}
}

func TestWriteSummary(t *testing.T) {
	r := obs.NewRun("test")
	r.Counter("nlr.intern.hit").Add(3)
	r.Counter("nlr.intern.miss").Add(1)
	r.StartSpan("stage").End()
	r.AddIngest(obs.Ingest{Source: "in.trace", EventsKept: 10})
	r.AddDegraded("nlr", "5.0", "boom")
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	out := buf.String()
	for _, want := range []string{"stage", "nlr interning: 3 hits / 1 misses", "in.trace", "degraded stages: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
