package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"difftrace/internal/apps/oddeven"
	"difftrace/internal/faults"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// writeEncodedPair generates one normal/faulty oddeven swapBug pair and
// writes each execution twice: as a text trace file and as a PLOT1 file.
func writeEncodedPair(t *testing.T) (text, plot [2]string) {
	t.Helper()
	dir := t.TempDir()
	write := func(path string, set *trace.TraceSet, enc func(io.Writer, *trace.TraceSet) error) string {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := enc(f, set); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plan, _ := faults.Named("swapBug")
	for i, side := range []struct {
		name string
		plan *faults.Plan
	}{{"normal", nil}, {"faulty", plan}} {
		tr := parlot.NewTracer(parlot.MainImage)
		if _, err := oddeven.Run(oddeven.Config{Procs: 16, Seed: 5, Plan: side.plan, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		set := tr.Collect()
		text[i] = write(filepath.Join(dir, side.name+".trace"), set, trace.WriteSetText)
		plot[i] = write(filepath.Join(dir, side.name+".plot"), set, parlot.WriteSetBinary)
	}
	return text, plot
}

// writeBinaryPair generates a normal/faulty PLOT1 pair.
func writeBinaryPair(t *testing.T) (string, string) {
	t.Helper()
	_, plot := writeEncodedPair(t)
	return plot[0], plot[1]
}

// TestRunEncodingDeterminism: one pair of executions, given as text files,
// as PLOT1 files and as a mixed pair, prints byte-identical stdout in every
// view. The encoding decides only how each side is read (a PLOT1 side stays
// compressed unless the view replays materialized sets), never what the
// analysis reports. The encodings also run at different worker counts.
func TestRunEncodingDeterminism(t *testing.T) {
	text, plot := writeEncodedPair(t)
	pairs := []struct {
		name           string
		normal, faulty string
		workers        int
	}{
		{"text", text[0], text[1], 1},
		{"plot1", plot[0], plot[1], 8},
		{"mixed", text[0], plot[1], 2},
	}
	views := []struct {
		name string
		set  func(*options)
	}{
		{"report", func(o *options) { o.report, o.heatmap, o.lattice = true, true, true }},
		{"heatmap-diffnlr", func(o *options) { o.heatmap, o.diffTarget = true, "5.0" }},
		{"divergence", func(o *options) { o.findDivergence = true }},
		{"sweep", func(o *options) { o.sweep = "11.mpiall.0K10" }},
		{"triage", func(o *options) { o.report, o.triage = true, true }},
	}
	for _, v := range views {
		t.Run(v.name, func(t *testing.T) {
			var ref []byte
			for _, p := range pairs {
				o := options{normalPath: p.normal, faultyPath: p.faulty,
					filterSpec: "11.mpiall.0K10", attrSpec: "sing.actual", linkageName: "ward",
					top: 6, workers: p.workers}
				v.set(&o)
				var out bytes.Buffer
				if err := run(&out, o); err != nil {
					t.Fatalf("%s: %v", p.name, err)
				}
				if ref == nil {
					ref = out.Bytes()
					continue
				}
				if !bytes.Equal(out.Bytes(), ref) {
					t.Errorf("%s output differs from %s:\n--- %s ---\n%s\n--- %s ---\n%s",
						p.name, pairs[0].name, pairs[0].name, ref, p.name, out.Bytes())
				}
			}
		})
	}
}
