package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

func TestRunOddEvenWritesTraces(t *testing.T) {
	out := filepath.Join(t.TempDir(), "normal.trace")
	if err := run("oddeven", "none", out, "text", 4, 4, 5); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, err := trace.ReadSetText(f, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Traces) != 4 {
		t.Errorf("traces = %d", len(set.Traces))
	}
	if set.TotalEvents() == 0 {
		t.Error("no events written")
	}
}

func TestRunWithFault(t *testing.T) {
	out := filepath.Join(t.TempDir(), "faulty.trace")
	if err := run("oddeven", "dlBug", out, "text", 16, 4, 5); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "truncated") {
		t.Error("deadlocked traces should carry truncation markers")
	}
}

func TestRunILCSAndLULESH(t *testing.T) {
	dir := t.TempDir()
	if err := run("ilcs", "none", filepath.Join(dir, "i.trace"), "text", 4, 2, 7); err != nil {
		t.Fatal(err)
	}
	if err := run("lulesh", "none", filepath.Join(dir, "l.trace"), "text", 4, 2, 7); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"i.trace", "l.trace"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunBinaryFormat(t *testing.T) {
	out := filepath.Join(t.TempDir(), "normal.plot")
	if err := run("oddeven", "none", out, "binary", 8, 4, 5); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, _, err := parlot.ReadSetBinaryContext(nil, f, nil, trace.ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Traces) != 8 || set.TotalEvents() == 0 {
		t.Errorf("binary set: %d traces, %d events", len(set.Traces), set.TotalEvents())
	}
	if err := run("oddeven", "none", out, "bogus", 8, 4, 5); err == nil {
		t.Error("bad format accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("bogus", "none", "", "text", 4, 4, 5); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run("oddeven", "bogusFault", "", "text", 4, 4, 5); err == nil {
		t.Error("unknown fault accepted")
	}
	if err := run("oddeven", "none", "/nonexistent-dir/x.trace", "text", 4, 4, 5); err == nil {
		t.Error("unwritable output accepted")
	}
}
