package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/faults"
	"difftrace/internal/filter"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// genAll generates every workload's inputs for seed and returns a digest
// of each input file, keyed by workload and file name.
func genAll(t *testing.T, seed int64) map[string][32]byte {
	t.Helper()
	out := map[string][32]byte{}
	plan := newLoopyPlan(seed)
	for _, faulty := range []bool{false, true} {
		blob, err := genLoopy(seed, plan, faulty)
		if err != nil {
			t.Fatal(err)
		}
		out["stream-loopy/"+strconv.FormatBool(faulty)] = sha256.Sum256(blob)
	}
	in, _, err := setupSweep(&bench{seed: seed}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{in.normal, in.faulty} {
		out["sweep-lulesh/"+filepath.Base(path)] = fileSum(t, path)
	}
	dir := t.TempDir()
	pairs, err := genDaemonPairs(seed, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		for _, path := range []string{p.normal, p.faulty} {
			out["daemon-mix/"+filepath.Base(path)] = fileSum(t, path)
		}
	}
	for i, j := range daemonJobs(seed, pairs) {
		raw, err := json.Marshal(j.req)
		if err != nil {
			t.Fatal(err)
		}
		raw = bytes.ReplaceAll(raw, []byte(dir), nil)
		out["daemon-mix/job"+strconv.Itoa(i)] = sha256.Sum256(raw)
	}
	return out
}

func fileSum(t *testing.T, path string) [32]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(raw)
}

func TestGeneratorsIgnoreGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := genAll(t, defaultSeed)
	runtime.GOMAXPROCS(2)
	two := genAll(t, defaultSeed)
	if len(one) != len(two) {
		t.Fatalf("%d inputs under GOMAXPROCS=1, %d under 2", len(one), len(two))
	}
	for name, sum := range one {
		if two[name] != sum {
			t.Errorf("%s differs between GOMAXPROCS=1 and 2", name)
		}
	}
}

func TestOtherSeedChangesInputsKeepsAnswer(t *testing.T) {
	a, b := genAll(t, defaultSeed), genAll(t, defaultSeed+1)
	changed := map[string]bool{}
	for name, sum := range a {
		if b[name] != sum {
			changed[filepath.Dir(name)] = true
		}
	}
	for _, w := range []string{"stream-loopy", "sweep-lulesh", "daemon-mix"} {
		if !changed[w] {
			t.Errorf("%s: seeds %d and %d give identical inputs", w, defaultSeed, defaultSeed+1)
		}
	}

	seed := int64(defaultSeed + 1)
	t.Run("stream-loopy", func(t *testing.T) {
		in, _, err := setupStream(&bench{seed: seed}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := in.op(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		c := &streamChecker{b: &bench{seed: seed}, in: in}
		if err := c.check(rep); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sweep-lulesh", func(t *testing.T) {
		in, _, err := setupSweep(&bench{seed: seed}, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		p, _, err := in.read(nil)
		if err != nil {
			t.Fatal(err)
		}
		flt, err := filter.ParseSpec(sweepSpecs[0])
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.DiffRun(p.normal, p.faulty, core.Config{
			Filter: flt, Attr: attr.Config{Kind: attr.Single, Freq: attr.Actual}, Linkage: cluster.Ward,
		})
		if err != nil {
			t.Fatal(err)
		}
		if top := rep.Processes.TopSuspects(1, 1e-9); len(top) == 0 || top[0] != strconv.Itoa(in.faultRank) {
			t.Fatalf("top process %v, want %d", top, in.faultRank)
		}
	})
	t.Run("daemon-mix", func(t *testing.T) {
		// genDaemonPairs fails if two faulty traces are equal. Seed 407 once
		// drew swapBug and dlBug at the same even rank and iteration, which
		// deadlock identically.
		for _, s := range []int64{seed, 3, 407} {
			if _, err := genDaemonPairs(s, t.TempDir()); err != nil {
				t.Errorf("seed %d: %v", s, err)
			}
		}
	})
}

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0.9, 3.7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{7}, 0.9, 7},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 0.9, 100},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "op", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "a", Parent: 0, Start: ms(10), End: ms(40)},
		{Name: "a1", Parent: 1, Start: ms(20), End: ms(30)},
		{Name: "b", Parent: 0, Start: ms(50), End: ms(60)},
		{Name: "b", Parent: 0, Start: ms(60), End: ms(70)},
		// A child that outlives its parent counts only inside it.
		{Name: "c", Parent: 3, Start: ms(55), End: ms(65)},
	}
	want := []time.Duration{ms(50), ms(20), ms(10), ms(5), ms(10), ms(10)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerStats(t *testing.T) {
	tr := newTracer()
	for op := 0; op < 2; op++ {
		tr.beginOp("op", "x")
		tr.begin("nlr")
		tr.begin("trace.name")
		time.Sleep(2 * time.Millisecond)
		tr.end()
		time.Sleep(2 * time.Millisecond)
		tr.end()
		tr.count("nlr.tokens_in", 5)
		tr.endOp()
	}
	st := tr.stats("op", func(string) bool { return true })
	if st.ops != 2 || len(st.walls) != 2 {
		t.Fatalf("ops %d walls %v, want 2", st.ops, st.walls)
	}
	var sum time.Duration
	for _, d := range st.self {
		sum += d
	}
	if sum > st.wall || st.self["nlr"] <= 0 || st.self["trace.name"] <= 0 {
		t.Errorf("self times %v exceed or miss the wall %v", st.self, st.wall)
	}
	if got := tr.opCount("nlr.tokens_in"); got != 10 {
		t.Errorf("tokens_in over ops = %v, want 10", got)
	}
	if share := st.layerShare("nlr", "trace"); share <= 0.5 || share > 1 {
		t.Errorf("layer share %v, want most of the wall", share)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program prints
// in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in the program", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}

// TestReplayMatchesPipeline checks the traced replay against the pipeline
// on a small text pair: same suspects, B-scores and NLR sequences, and the
// same rendered report.
func TestReplayMatchesPipeline(t *testing.T) {
	n, err := genOddeven(8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := genOddeven(8, 1, faults.NewPlan(faults.Fault{Kind: faults.SwapSendRecv, Process: 3, Thread: -1, AfterIteration: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		var p pair
		if stream {
			reg := trace.NewRegistry()
			for _, side := range []struct {
				set *trace.TraceSet
				dst **parlot.StreamSet
			}{{n, &p.snormal}, {f, &p.sfaulty}} {
				blob, err := plotBytes(side.set)
				if err != nil {
					t.Fatal(err)
				}
				if *side.dst, err = parlot.ReadStreamSet(bytes.NewReader(blob), reg); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			p = pair{normal: n, faulty: f}
		}
		for _, spec := range []string{"11.mpiall.0K10", "01.0K10"} {
			flt, err := filter.ParseSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Filter: flt, Attr: attr.Config{Kind: attr.Double, Freq: attr.Log10}, Linkage: cluster.Ward}
			var want *core.Report
			if stream {
				want, err = core.DiffRunStream(p.snormal, p.sfaulty, cfg)
			} else {
				want, err = core.DiffRun(p.normal, p.faulty, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			got, err := replayDiffRun(newTracer(), p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reportDigest(got) != reportDigest(want) {
				t.Errorf("stream=%v %s: replayed report digest differs from the pipeline's", stream, spec)
			}
			var wantText, gotText bytes.Buffer
			if err := want.WriteReport(&wantText, core.RenderOptions{TopK: 6}); err != nil {
				t.Fatal(err)
			}
			if err := replayReport(newTracer(), &gotText, got, 6); err != nil {
				t.Fatal(err)
			}
			if gotText.String() != wantText.String() {
				t.Errorf("stream=%v %s: replayed WriteReport differs", stream, spec)
			}
		}
	}
}
