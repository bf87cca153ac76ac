package chaos

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"difftrace/internal/apps/oddeven"
	"difftrace/internal/core"
	"difftrace/internal/faults"
	"difftrace/internal/parlot"
	"difftrace/internal/resilience"
	"difftrace/internal/trace"
)

// buildPair produces a well-formed normal/faulty pair over a shared
// registry: the normal set as text, the faulty set as both text and PLOT1
// binary (the corruption targets).
func buildPair(t testing.TB) (normText, faultText, faultBin []byte) {
	t.Helper()
	reg := trace.NewRegistry()
	run := func(plan *faults.Plan) *trace.TraceSet {
		tr := parlot.NewTracerWith(parlot.MainImage, reg)
		if _, err := oddeven.Run(oddeven.Config{Procs: 8, Seed: 5, Plan: plan, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		return tr.Collect()
	}
	normal := run(nil)
	faulty := run(faults.NewPlan(faults.Fault{
		Kind: faults.SwapSendRecv, Process: 5, Thread: -1, AfterIteration: 7,
	}))
	var nb, fb, bb bytes.Buffer
	if err := trace.WriteSetText(&nb, normal); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSetText(&fb, faulty); err != nil {
		t.Fatal(err)
	}
	if err := parlot.WriteSetBinary(&bb, faulty); err != nil {
		t.Fatal(err)
	}
	return nb.Bytes(), fb.Bytes(), bb.Bytes()
}

func readLenient(data []byte, binary bool, reg *trace.Registry, opts trace.ReadOptions) (*trace.TraceSet, *resilience.IngestReport, error) {
	opts.Mode = trace.Lenient
	if binary {
		return parlot.ReadSetBinaryContext(nil, bytes.NewReader(data), reg, opts)
	}
	return trace.ReadSetTextContext(nil, bytes.NewReader(data), reg, opts)
}

func readStrict(data []byte, binary bool) error {
	var err error
	if binary {
		_, _, err = parlot.ReadSetBinaryContext(nil, bytes.NewReader(data), nil, trace.ReadOptions{})
	} else {
		_, err = trace.ReadSetText(bytes.NewReader(data), nil)
	}
	return err
}

// TestOperatorsGracefulDegradation is the chaos harness: every operator's
// corruption must be salvaged by the lenient readers with a fully-accounted
// report, rejected by strict mode where guaranteed, and survivable by a
// Resilient DiffRun that still produces a ranking.
func TestOperatorsGracefulDegradation(t *testing.T) {
	normText, faultText, faultBin := buildPair(t)
	for _, op := range All() {
		op := op
		t.Run(op.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			src := faultText
			if op.Binary {
				src = faultBin
			}
			corrupted := op.Apply(src, rng)
			if op.WantStrictError && bytes.Equal(corrupted, src) {
				t.Fatal("operator left the payload untouched")
			}

			// Lenient salvage: nil error, every event accounted for.
			reg := trace.NewRegistry()
			normal, err := trace.ReadSetText(bytes.NewReader(normText), reg)
			if err != nil {
				t.Fatal(err)
			}
			set, rep, err := readLenient(corrupted, op.Binary, reg, trace.ReadOptions{})
			if err != nil {
				t.Fatalf("lenient read: %v", err)
			}
			if got, want := set.TotalEvents(), rep.EventsKept+rep.EventsSynthesized; got != want {
				t.Fatalf("accounting: TotalEvents %d != kept %d + synthesized %d",
					got, rep.EventsKept, rep.EventsSynthesized)
			}

			// Bounded lenient reads must salvage too.
			_, brep, err := readLenient(corrupted, op.Binary, trace.NewRegistry(), trace.ReadOptions{MaxLineBytes: 4096})
			if err != nil {
				t.Fatalf("bounded lenient read: %v", err)
			}
			if op.Name == "long-name" && brep.Clean() {
				t.Error("64 KiB name under a 4 KiB line bound left a clean report")
			}

			// Strict rejects guaranteed damage, naming the line for text.
			serr := readStrict(corrupted, op.Binary)
			if op.WantStrictError {
				if serr == nil {
					t.Error("strict read accepted the corrupted payload")
				} else if !op.Binary && !strings.Contains(serr.Error(), "line ") {
					t.Errorf("strict error does not name the line: %v", serr)
				}
			}

			// The pipeline still runs — and still ranks — over the salvage.
			cfg := core.DefaultConfig()
			cfg.Resilient = true
			drep, err := core.DiffRun(normal, set, cfg)
			if err != nil {
				t.Fatalf("resilient DiffRun over salvaged set: %v", err)
			}
			if drep.Threads == nil || drep.Processes == nil {
				t.Fatal("resilient DiffRun produced a nil level")
			}
			_ = drep.Threads.TopSuspects(3, 0)
		})
	}
}

// TestOperatorsDeterministic: the same seed yields the same corruption, so
// failures reproduce.
func TestOperatorsDeterministic(t *testing.T) {
	_, faultText, faultBin := buildPair(t)
	for _, op := range All() {
		src := faultText
		if op.Binary {
			src = faultBin
		}
		a := op.Apply(src, rand.New(rand.NewSource(7)))
		b := op.Apply(src, rand.New(rand.NewSource(7)))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: corruption is not deterministic under a fixed seed", op.Name)
		}
	}
}

// TestChaosParallelMatchesSequential replays every corruption operator's
// salvage through the parallel pipeline: a Resilient DiffRun at Workers:8
// must produce the exact report — including the Degraded accounting — of
// the sequential Workers:1 run.
func TestChaosParallelMatchesSequential(t *testing.T) {
	normText, faultText, faultBin := buildPair(t)
	for _, op := range All() {
		op := op
		t.Run(op.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			src := faultText
			if op.Binary {
				src = faultBin
			}
			corrupted := op.Apply(src, rng)

			reg := trace.NewRegistry()
			normal, err := trace.ReadSetText(bytes.NewReader(normText), reg)
			if err != nil {
				t.Fatal(err)
			}
			set, _, err := readLenient(corrupted, op.Binary, reg, trace.ReadOptions{})
			if err != nil {
				t.Fatalf("lenient read: %v", err)
			}

			cfg := core.DefaultConfig()
			cfg.Resilient = true
			cfg.Workers = 1
			seq, err := core.DiffRun(normal, set, cfg)
			if err != nil {
				t.Fatalf("sequential DiffRun: %v", err)
			}
			cfg.Workers = 8
			par, err := core.DiffRun(normal, set, cfg)
			if err != nil {
				t.Fatalf("parallel DiffRun: %v", err)
			}

			// Degraded accounting must match entry for entry.
			if len(seq.Degraded) != len(par.Degraded) {
				t.Fatalf("degraded counts differ: %d vs %d", len(seq.Degraded), len(par.Degraded))
			}
			for i := range seq.Degraded {
				if seq.Degraded[i].Stage != par.Degraded[i].Stage ||
					seq.Degraded[i].Object != par.Degraded[i].Object {
					t.Fatalf("degraded[%d] differs: %v vs %v", i, seq.Degraded[i], par.Degraded[i])
				}
			}

			// And the full reports, modulo the Workers knob.
			cs, cp := *seq, *par
			cs.Cfg.Workers, cp.Cfg.Workers = 0, 0
			if !reflect.DeepEqual(&cs, &cp) {
				t.Fatalf("parallel report differs from sequential (suspects: %v vs %v)",
					seq.Threads.TopSuspects(5, 0), par.Threads.TopSuspects(5, 0))
			}
		})
	}
}
