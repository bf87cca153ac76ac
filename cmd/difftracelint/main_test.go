package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "lint", "testdata", "src", name)
}

// runLint drives the CLI exactly as main does, against a fixture module.
func runLint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestWhyPrintsChains is the acceptance gate for -why: the interprocedural
// checks must explain their findings with the call chain from an exported
// entry point, not just a position.
func TestWhyPrintsChains(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks fixture modules from source; run without -short")
	}
	cases := []struct {
		check   string
		fixture string
		// a function that only appears in the finding via its call chain
		chainHop string
	}{
		{"orderflow", "orderflow", "Summary"},
		{"lockdiscipline", "lockdiscipline", "Peek"},
	}
	for _, tc := range cases {
		t.Run(tc.check, func(t *testing.T) {
			code, out, stderr := runLint(t, "-C", fixture(tc.fixture), "-checks", tc.check, "-why")
			if code != 1 {
				t.Fatalf("exit %d, want 1 (findings expected)\nstdout:\n%s\nstderr:\n%s", code, out, stderr)
			}
			if !strings.Contains(out, "why:") {
				t.Fatalf("-why output has no call chains:\n%s", out)
			}
			if !strings.Contains(out, tc.chainHop) {
				t.Fatalf("-why chain does not pass through %s:\n%s", tc.chainHop, out)
			}
			if !strings.Contains(out, "→") {
				t.Fatalf("-why chain is a single hop — want caller → callee arrows:\n%s", out)
			}
		})
	}
}

// TestGraphDump: -graph emits a deterministic edge list and exits 0 even
// when the module has findings.
func TestGraphDump(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks fixture modules from source; run without -short")
	}
	code, out, stderr := runLint(t, "-C", fixture("lockdiscipline"), "-graph")
	if code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(out, "->") {
		t.Fatalf("-graph output has no edges:\n%s", out)
	}
	code2, out2, _ := runLint(t, "-C", fixture("lockdiscipline"), "-graph")
	if code2 != 0 || out != out2 {
		t.Fatal("-graph output is not deterministic across runs")
	}
}
