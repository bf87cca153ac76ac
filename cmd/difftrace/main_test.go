package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"difftrace/internal/apps/oddeven"
	"difftrace/internal/faults"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// writePair generates a normal/faulty trace-file pair for the CLI to chew.
func writePair(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, plan *faults.Plan) string {
		tr := parlot.NewTracer(parlot.MainImage)
		if _, err := oddeven.Run(oddeven.Config{Procs: 16, Seed: 5, Plan: plan, Tracer: tr}); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := trace.WriteSetText(f, tr.Collect()); err != nil {
			t.Fatal(err)
		}
		return path
	}
	plan, _ := faults.Named("swapBug")
	return write("normal.trace", nil), write("faulty.trace", plan)
}

func TestSplitList(t *testing.T) {
	if got := splitList(""); got != nil {
		t.Errorf("empty = %v", got)
	}
	got := splitList("a, b ,,c")
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("split = %v", got)
	}
}

func TestRunSingleComparison(t *testing.T) {
	normal, faulty := writePair(t)
	var buf bytes.Buffer
	err := run(&buf, options{normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.actual", linkageName: "ward",
		diffTarget: "5.0", top: 6, heatmap: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"B-score (threads):",
		"top thread suspects:  5.0",
		"JSM_D heatmap",
		"diffNLR(5.0)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunProcessLevelDiffNLR(t *testing.T) {
	normal, faulty := writePair(t)
	var buf bytes.Buffer
	err := run(&buf, options{normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.actual", linkageName: "ward",
		diffTarget: "5", top: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "diffNLR(5.") {
		t.Errorf("process diffNLR missing:\n%s", buf.String())
	}
}

func TestRunSweepMode(t *testing.T) {
	normal, faulty := writePair(t)
	var buf bytes.Buffer
	err := run(&buf, options{normalPath: normal, faultyPath: faulty,
		attrSpec: "sing.noFreq", linkageName: "ward",
		sweep: "11.mpiall.0K10,11.mpisr.0K10", top: 6})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "B-score") || !strings.Contains(out, "11.mpisr.0K10") {
		t.Errorf("sweep output:\n%s", out)
	}
	if strings.Count(out, "11.mpiall.0K10") != 6 { // one row per attr config
		t.Errorf("sweep rows wrong:\n%s", out)
	}
}

func TestRunLatticeMode(t *testing.T) {
	normal, faulty := writePair(t)
	var buf bytes.Buffer
	err := run(&buf, options{normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.noFreq", linkageName: "ward",
		top: 6, lattice: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "concept lattice") {
		t.Errorf("lattice output missing:\n%s", buf.String())
	}
}

func TestRunReportMode(t *testing.T) {
	normal, faulty := writePair(t)
	var buf bytes.Buffer
	err := run(&buf, options{normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.actual", linkageName: "ward",
		top: 3, report: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "DiffTrace report") || !strings.Contains(out, "diffNLR(5.0)") {
		t.Errorf("report output:\n%s", out)
	}
}

func TestRunTriageMode(t *testing.T) {
	normal, faulty := writePair(t)
	var buf bytes.Buffer
	err := run(&buf, options{normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.actual", linkageName: "ward",
		top: 3, report: true, triage: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"companion analyses", "STAT stack classes", "AutomaDeD", "relative progress"} {
		if !strings.Contains(out, want) {
			t.Errorf("triage output missing %q", want)
		}
	}
}

// TestRunTriageWithoutReport: -triage appends the companion analyses to the
// summary view too, ahead of the divergence section, as it does in -report.
func TestRunTriageWithoutReport(t *testing.T) {
	normal, faulty := writePair(t)
	var buf bytes.Buffer
	err := run(&buf, options{normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.actual", linkageName: "ward",
		top: 3, triage: true, findDivergence: true})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"top thread suspects", "companion analyses", "STAT stack classes", "AutomaDeD", "relative progress"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary view with -triage is missing %q:\n%s", want, out)
		}
	}
	if i, j := strings.Index(out, "companion analyses"), strings.Index(out, "divergence"); i < 0 || j < i {
		t.Errorf("companion analyses should precede the divergence section (at %d and %d)", i, j)
	}
}

func TestRunErrors(t *testing.T) {
	normal, faulty := writePair(t)
	var buf bytes.Buffer
	cases := []struct {
		name                                         string
		normalP, faultyP, flt, attrs, linkage, diffT string
	}{
		{"missing normal", "/nope", faulty, "11.0K10", "sing.noFreq", "ward", ""},
		{"missing faulty", normal, "/nope", "11.0K10", "sing.noFreq", "ward", ""},
		{"bad filter", normal, faulty, "zz", "sing.noFreq", "ward", ""},
		{"bad attr", normal, faulty, "11.0K10", "zz", "ward", ""},
		{"bad linkage", normal, faulty, "11.0K10", "sing.noFreq", "zz", ""},
		{"bad target", normal, faulty, "11.0K10", "sing.noFreq", "ward", "99.9"},
	}
	for _, c := range cases {
		err := run(&buf, options{normalPath: c.normalP, faultyPath: c.faultyP,
			filterSpec: c.flt, attrSpec: c.attrs, linkageName: c.linkage,
			diffTarget: c.diffT, top: 6})
		if err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}
