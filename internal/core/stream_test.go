package core

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"difftrace/internal/attr"
	"difftrace/internal/filter"
	"difftrace/internal/obs"
	"difftrace/internal/parlot"
	"difftrace/internal/resilience/chaos"
	"difftrace/internal/synth"
	"difftrace/internal/trace"
)

// This file is the source-independence battery: every test feeds the SAME
// PLOT1 bytes to DiffRun once as a materialized TraceSet
// (ReadSetBinaryOptions) and once as a compressed StreamSet
// (ReadStreamSetOptions) and demands byte-identical reports.
// Test names match the Makefile determinism regex
// (Determinism|Workers|ParallelMatchesSequential|Ghost) so the whole
// battery runs under `make determinism` with -race -short -count=2.

// setBinary serializes a trace set to PLOT1 bytes.
func setBinary(t *testing.T, set *trace.TraceSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := parlot.WriteSetBinary(&buf, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderFull renders a report with every section enabled — the widest
// byte-surface the equivalence claim can be checked on.
func renderFull(t *testing.T, rep *Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	opts := RenderOptions{TopK: 5, Heatmaps: true, Dendrograms: true, Lattices: rep.Cfg.BuildLattices}
	if err := rep.WriteReport(&buf, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runBatch reads both byte blobs into one fresh registry as materialized
// sets and diffs them.
func runBatch(t *testing.T, nb, fb []byte, opts trace.ReadOptions, cfg Config) *Report {
	t.Helper()
	reg := trace.NewRegistry()
	normal, _, err := parlot.ReadSetBinaryContext(nil, bytes.NewReader(nb), reg, opts)
	if err != nil {
		t.Fatalf("batch read normal: %v", err)
	}
	faulty, _, err := parlot.ReadSetBinaryContext(nil, bytes.NewReader(fb), reg, opts)
	if err != nil {
		t.Fatalf("batch read faulty: %v", err)
	}
	rep, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatalf("batch DiffRun: %v", err)
	}
	return rep
}

// runStream reads the same blobs as compressed StreamSets (traces never
// expanded) and diffs them.
func runStream(t *testing.T, nb, fb []byte, opts trace.ReadOptions, cfg Config) *Report {
	t.Helper()
	reg := trace.NewRegistry()
	normal, _, err := parlot.ReadStreamSetContext(nil, bytes.NewReader(nb), reg, opts)
	if err != nil {
		t.Fatalf("stream read normal: %v", err)
	}
	faulty, _, err := parlot.ReadStreamSetContext(nil, bytes.NewReader(fb), reg, opts)
	if err != nil {
		t.Fatalf("stream read faulty: %v", err)
	}
	rep, err := DiffRun(normal, faulty, cfg)
	if err != nil {
		t.Fatalf("stream DiffRun: %v", err)
	}
	return rep
}

// streamMatchesBatch asserts the two reports are equivalent across the
// source boundary: byte-identical rendered output, identical loop tables,
// and structurally identical per-level analysis.
func streamMatchesBatch(t *testing.T, batch, stream *Report, label string) {
	t.Helper()
	if got, want := renderFull(t, stream), renderFull(t, batch); !bytes.Equal(got, want) {
		t.Fatalf("%s: rendered reports differ:\n--- batch ---\n%s\n--- stream ---\n%s", label, want, got)
	}
	if batch.LoopTable.Len() != stream.LoopTable.Len() {
		t.Fatalf("%s: loop tables differ in size: %d vs %d", label, batch.LoopTable.Len(), stream.LoopTable.Len())
	}
	for id := 0; id < batch.LoopTable.Len(); id++ {
		if batch.LoopTable.Describe(id) != stream.LoopTable.Describe(id) {
			t.Fatalf("%s: loop L%d differs: %s vs %s", label, id, batch.LoopTable.Describe(id), stream.LoopTable.Describe(id))
		}
	}
	for _, lv := range []struct {
		name string
		a, b *Level
	}{{"threads", batch.Threads, stream.Threads}, {"processes", batch.Processes, stream.Processes}} {
		if !reflect.DeepEqual(lv.a.Suspects, lv.b.Suspects) {
			t.Fatalf("%s: %s suspects differ:\n%v\nvs\n%v", label, lv.name, lv.a.Suspects, lv.b.Suspects)
		}
		if lv.a.BScore != lv.b.BScore {
			t.Fatalf("%s: %s B-score %v vs %v", label, lv.name, lv.a.BScore, lv.b.BScore)
		}
		if !reflect.DeepEqual(lv.a.JSMD, lv.b.JSMD) {
			t.Fatalf("%s: %s JSM_D differs", label, lv.name)
		}
		if !reflect.DeepEqual(lv.a.Normal.NLR, lv.b.Normal.NLR) {
			t.Fatalf("%s: %s normal NLR sequences differ", label, lv.name)
		}
		if !reflect.DeepEqual(lv.a.Faulty.NLR, lv.b.Faulty.NLR) {
			t.Fatalf("%s: %s faulty NLR sequences differ", label, lv.name)
		}
		if !reflect.DeepEqual(lv.a.Normal.Attrs, lv.b.Normal.Attrs) {
			t.Fatalf("%s: %s normal attribute sets differ", label, lv.name)
		}
		if !reflect.DeepEqual(lv.a.Faulty.Attrs, lv.b.Faulty.Attrs) {
			t.Fatalf("%s: %s faulty attribute sets differ", label, lv.name)
		}
	}
	if !reflect.DeepEqual(batch.Degraded, stream.Degraded) {
		t.Fatalf("%s: degraded lists differ:\n%v\nvs\n%v", label, batch.Degraded, stream.Degraded)
	}
}

// TestStreamMatchesBatchDeterminism: the oddeven golden pair, serialized
// to PLOT1 and analyzed both ways across attribute kinds (including the
// caller→callee kind that re-streams the raw events) and with lattices on,
// at Workers 1 and 8.
func TestStreamMatchesBatchDeterminism(t *testing.T) {
	reg := trace.NewRegistry()
	nb := setBinary(t, collect(t, 8, reg, nil))
	fb := setBinary(t, collect(t, 8, reg, swapPlan()))

	cfgs := []Config{
		DefaultConfig(),
		{Filter: DefaultConfig().Filter, Attr: attr.Config{Kind: attr.Double, Freq: attr.Log10}, Linkage: DefaultConfig().Linkage, BuildLattices: true},
		{Filter: filter.Everything(), Attr: attr.Config{Kind: attr.Context, Freq: attr.Actual}, Linkage: DefaultConfig().Linkage},
	}
	for _, base := range cfgs {
		base.Workers = 1
		batch := runBatch(t, nb, fb, trace.ReadOptions{}, base)
		for _, w := range []int{1, 8} {
			cfg := base
			cfg.Workers = w
			stream := runStream(t, nb, fb, trace.ReadOptions{}, cfg)
			streamMatchesBatch(t, batch, stream, base.Attr.String())
		}
	}
}

// TestStreamWorkersDeterminism: over compressed sources the report is
// identical for every worker count — the parallel-path proof rerun over
// the decode-on-the-fly objects (run under -race to catch Memo and
// SymbolReader sharing bugs).
func TestStreamWorkersDeterminism(t *testing.T) {
	reg := trace.NewRegistry()
	nb := setBinary(t, collect(t, 8, reg, nil))
	fb := setBinary(t, collect(t, 8, reg, swapPlan()))

	base := DefaultConfig()
	base.BuildLattices = true
	base.Workers = 1
	seq := runStream(t, nb, fb, trace.ReadOptions{}, base)
	for _, w := range []int{2, 8} {
		cfg := base
		cfg.Workers = w
		par := runStream(t, nb, fb, trace.ReadOptions{}, cfg)
		reportsEqual(t, seq, par, "stream workers")
	}
}

// loopySets builds a deviant-population pair of heavily loopy synthetic
// traces (~10k events per side across 6 threads) whose RLE-compressed form
// is far smaller than its expansion — the shape compressed sources exist
// for.
func loopySets(t *testing.T) (nb, fb []byte) {
	t.Helper()
	base := synth.Config{
		Prologue: 3, Epilogue: 2,
		Loops: []synth.LoopSpec{
			{Body: 4, Iterations: 120, Nested: &synth.LoopSpec{Body: 2, Iterations: 3}},
			{Body: 3, Iterations: 150},
		},
		NoiseRate: 0.02, NoisePool: 4, Seed: 11,
	}
	normal := synth.Population(6, -1, 0, base)
	faulty := synth.Population(6, 3, 0.25, base)
	return setBinary(t, normal), setBinary(t, faulty)
}

// TestStreamLoopySynthDeterminism: property-style equivalence on loopy
// synthetic input, strict and lenient-with-caps (the caps force EventCap
// quarantines, exercising the replay rule the compressed source must
// reproduce).
func TestStreamLoopySynthDeterminism(t *testing.T) {
	nb, fb := loopySets(t)
	cfg := Config{Filter: filter.Everything(), Attr: attr.Config{Kind: attr.Single, Freq: attr.Actual}, Linkage: DefaultConfig().Linkage}

	for _, tc := range []struct {
		name string
		opts trace.ReadOptions
	}{
		{"strict", trace.ReadOptions{}},
		{"lenient-capped", trace.ReadOptions{Mode: trace.Lenient, MaxEventsPerTrace: 700}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg.Workers = 1
			batch := runBatch(t, nb, fb, tc.opts, cfg)
			for _, w := range []int{1, 8} {
				scfg := cfg
				scfg.Workers = w
				stream := runStream(t, nb, fb, tc.opts, scfg)
				streamMatchesBatch(t, batch, stream, tc.name)
			}
		})
	}
}

// TestStreamChaosParallelMatchesSequential: every binary corruption
// operator, applied to the faulty side and read leniently, yields the same
// report from both sources (and the compressed reader's ingest accounting
// matches the materializing reader's byte for byte).
func TestStreamChaosParallelMatchesSequential(t *testing.T) {
	reg := trace.NewRegistry()
	nb := setBinary(t, collect(t, 6, reg, nil))
	fb := setBinary(t, collect(t, 6, reg, swapPlan()))

	for _, op := range chaos.Binary() {
		op := op
		t.Run(op.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			corrupted := op.Apply(fb, rng)
			opts := trace.ReadOptions{Mode: trace.Lenient}

			breg := trace.NewRegistry()
			bn, _, err := parlot.ReadSetBinaryContext(nil, bytes.NewReader(nb), breg, opts)
			if err != nil {
				t.Fatalf("batch read normal: %v", err)
			}
			bf, brep, berr := parlot.ReadSetBinaryContext(nil, bytes.NewReader(corrupted), breg, opts)

			sreg := trace.NewRegistry()
			sn, _, err := parlot.ReadStreamSetContext(nil, bytes.NewReader(nb), sreg, opts)
			if err != nil {
				t.Fatalf("stream read normal: %v", err)
			}
			sf, srep, serr := parlot.ReadStreamSetContext(nil, bytes.NewReader(corrupted), sreg, opts)

			// Ingest outcome must agree before any analysis does.
			if (berr == nil) != (serr == nil) {
				t.Fatalf("read errors diverge: batch=%v stream=%v", berr, serr)
			}
			if got, want := srep.Render(), brep.Render(); got != want {
				t.Fatalf("ingest reports differ:\n--- batch ---\n%s\n--- stream ---\n%s", want, got)
			}
			if berr != nil {
				if berr.Error() != serr.Error() {
					t.Fatalf("error text diverges: batch=%v stream=%v", berr, serr)
				}
				return
			}

			cfg := DefaultConfig()
			cfg.Resilient = true
			cfg.Workers = 1
			batch, err := DiffRun(bn, bf, cfg)
			if err != nil {
				t.Fatalf("batch DiffRun: %v", err)
			}
			for _, w := range []int{1, 8} {
				scfg := cfg
				scfg.Workers = w
				stream, err := DiffRun(sn, sf, scfg)
				if err != nil {
					t.Fatalf("stream DiffRun: %v", err)
				}
				streamMatchesBatch(t, batch, stream, op.Name)
			}
		})
	}
}

// TestStreamGhostObjectsDeterminism: a faulty side missing two whole
// processes forces ghost objects through the union; both sources must
// yield the same empty-side placeholders.
func TestStreamGhostObjectsDeterminism(t *testing.T) {
	reg := trace.NewRegistry()
	nb := setBinary(t, collect(t, 8, reg, nil))
	fb := setBinary(t, collect(t, 6, reg, swapPlan()))

	cfg := DefaultConfig()
	cfg.Workers = 1
	batch := runBatch(t, nb, fb, trace.ReadOptions{}, cfg)
	for _, w := range []int{1, 8} {
		scfg := cfg
		scfg.Workers = w
		stream := runStream(t, nb, fb, trace.ReadOptions{}, scfg)
		streamMatchesBatch(t, batch, stream, "ghost")
	}
}

// TestStreamManifestWorkersInvariant: over compressed sources the scrubbed
// obs manifest is byte-identical across worker counts, and the compressed
// reader marks it.
func TestStreamManifestWorkersInvariant(t *testing.T) {
	reg := trace.NewRegistry()
	nb := setBinary(t, collect(t, 8, reg, nil))
	fb := setBinary(t, collect(t, 8, reg, swapPlan()))

	build := func(workers int) []byte {
		run := obs.NewRun("test")
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Obs = run
		runStream(t, nb, fb, trace.ReadOptions{Obs: run}, cfg)
		m := run.Manifest()
		obs.Scrub(m)
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	seq := build(1)
	if !bytes.Contains(seq, []byte("parlot.stream_sets")) {
		t.Error("manifest missing the parlot.stream_sets marker")
	}
	for _, w := range []int{2, 8} {
		par := build(w)
		if !bytes.Equal(seq, par) {
			t.Fatalf("scrubbed streaming manifest differs between Workers:1 and Workers:%d:\n--- seq ---\n%s\n--- par ---\n%s", w, seq, par)
		}
	}
}

// TestProgressCountsEventsRead: live progress counts every event a run
// reads, before the filter, so a materialized and a compressed source of
// the same bytes advance it by the same amount. A level reads each event
// once, however many NLR rounds it runs.
func TestProgressCountsEventsRead(t *testing.T) {
	reg := trace.NewRegistry()
	nset, fset := collect(t, 8, reg, nil), collect(t, 8, reg, swapPlan())
	nb, fb := setBinary(t, nset), setBinary(t, fset)

	events := func(read func(io.Reader, *trace.Registry) (Source, error)) int64 {
		t.Helper()
		reg := trace.NewRegistry()
		normal, err := read(bytes.NewReader(nb), reg)
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := read(bytes.NewReader(fb), reg)
		if err != nil {
			t.Fatal(err)
		}
		p := obs.NewProgress()
		cfg := DefaultConfig()
		cfg.Obs = obs.NewRun("test")
		if _, err := DiffRunContext(obs.WithProgress(context.Background(), p), normal, faulty, cfg); err != nil {
			t.Fatal(err)
		}
		if rounds := cfg.Obs.Manifest().Counters["nlr.rounds"]; rounds < 2 {
			t.Fatalf("manifest shows %d nlr.rounds; the count needs a run with a later round", rounds)
		}
		return p.Snapshot().Events
	}
	batch := events(func(r io.Reader, reg *trace.Registry) (Source, error) {
		set, _, err := parlot.ReadSetBinaryContext(nil, r, reg, trace.ReadOptions{})
		return set, err
	})
	stream := events(func(r io.Reader, reg *trace.Registry) (Source, error) {
		return parlot.ReadStreamSet(r, reg)
	})
	if batch != stream {
		t.Fatalf("progress events: materialized %d, compressed %d", batch, stream)
	}
	// DefaultConfig keeps only MPI calls, yet both levels read every event
	// of both sides, once.
	if read := int64(2 * (nset.TotalEvents() + fset.TotalEvents())); batch != read {
		t.Fatalf("progress counted %d events, want the %d the two levels read", batch, read)
	}
}
