// Golden divergence tests: the divergence explorer's rendered reports over
// the checked-in fixture pairs must stay byte-identical to the goldens,
// across Workers 1 vs 8, and across materialized vs compressed sources.
// Each fixture carries a known injected fault, and the goldens pin that
// the explorer names its exact function and event index:
//
//   - figure3: hand-written Figure 3-style exchange; proc 2 hangs after 3
//     of 6 send/recv iterations → loop-count at MPI_Send, event 9.
//   - ilcs: tracegen ILCS with ompBug (OmitCritical on p6) → mutation at
//     GOMP_critical_start on thread 6.4.
//   - lulesh: tracegen LULESH with skipLeapFrog (SkipFunction on p2) →
//     mutation at LagrangeLeapFrog on thread 2.0, with the deadlock
//     cascade visible across the other ranks.
//
// Regenerate (only when an output change is intended) with
// UPDATE_GOLDEN=1 go test -run GoldenDivergence .
package difftrace_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

type divergenceFixture struct {
	name       string
	filterSpec string
	faultObj   string // thread whose row must name the fault
	faultFunc  string // the injected fault's function
	faultEvent int64  // proven-equal event prefix on that row
}

var divergenceFixtures = []divergenceFixture{
	{"figure3", "11.mpiall.0K10", "2.0", "MPI_Send", 9},
	{"ilcs", "11.plt.0K10", "6.4", "GOMP_critical_start", 2},
	{"lulesh", "11.plt.0K10", "2.0", "LagrangeLeapFrog", 7},
}

func readDivergencePair(t *testing.T, name string) (*trace.TraceSet, *trace.TraceSet) {
	t.Helper()
	reg := trace.NewRegistry()
	read := func(side string) *trace.TraceSet {
		f, err := os.Open(filepath.Join("testdata", "divergence", name+"_"+side+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		s, err := trace.ReadSetText(bufio.NewReader(f), reg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return read("normal"), read("faulty")
}

func divergenceConfig(t *testing.T, fx divergenceFixture, workers int) core.Config {
	t.Helper()
	flt, err := filter.ParseSpec(fx.filterSpec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Filter = flt
	cfg.Workers = workers
	return cfg
}

// divergenceDump runs the pipeline plus the divergence pass and renders
// the explorer report. stream=true round-trips the fixture through PLOT1
// bytes and diffs the compressed StreamSets — the path `difftrace` takes on
// PLOT1 files.
func divergenceDump(t *testing.T, fx divergenceFixture, workers int, stream bool) string {
	t.Helper()
	normal, faulty := readDivergencePair(t, fx.name)
	cfg := divergenceConfig(t, fx, workers)

	src := [2]core.Source{normal, faulty}
	if stream {
		reg := trace.NewRegistry()
		for i, set := range []*trace.TraceSet{normal, faulty} {
			var buf bytes.Buffer
			if werr := parlot.WriteSetBinary(&buf, set); werr != nil {
				t.Fatal(werr)
			}
			s, _, rerr := parlot.ReadStreamSetContext(nil, &buf, reg, trace.ReadOptions{})
			if rerr != nil {
				t.Fatal(rerr)
			}
			src[i] = s
		}
	}
	rep, err := core.DiffRun(src[0], src[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	div, err := rep.FindDivergenceContext(nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := div.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func checkDivergenceGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", "divergence", "golden_"+name+".txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("%s drifted from golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGoldenDivergenceWorkersDeterminism pins every fixture's rendered
// divergence report to its golden and to byte-identity across Workers
// 1 vs 8 (part of `make determinism`).
func TestGoldenDivergenceWorkersDeterminism(t *testing.T) {
	for _, fx := range divergenceFixtures {
		seq := divergenceDump(t, fx, 1, false)
		par := divergenceDump(t, fx, 8, false)
		if seq != par {
			t.Errorf("%s: divergence report differs between Workers:1 and Workers:8", fx.name)
		}
		checkDivergenceGolden(t, fx.name, seq)
	}
}

// TestGoldenDivergenceBatchStreamDeterminism: the same fixture diffed as
// materialized and as compressed sets must render the byte-identical
// divergence report.
func TestGoldenDivergenceBatchStreamDeterminism(t *testing.T) {
	for _, fx := range divergenceFixtures {
		batch := divergenceDump(t, fx, 4, false)
		stream := divergenceDump(t, fx, 4, true)
		if batch != stream {
			t.Errorf("%s: divergence report differs between materialized and compressed sets:\n--- materialized ---\n%s--- compressed ---\n%s",
				fx.name, batch, stream)
		}
	}
}

// TestGoldenDivergenceFaultLocalization: each report must carry a row for
// the known faulty object naming the injected fault's function and the
// hand-checked proven-equal event index.
func TestGoldenDivergenceFaultLocalization(t *testing.T) {
	for _, fx := range divergenceFixtures {
		got := divergenceDump(t, fx, 4, false)
		var found bool
		for _, line := range strings.Split(got, "\n") {
			if !strings.HasPrefix(line, fx.faultObj+" ") {
				continue
			}
			if !strings.Contains(line, fx.faultFunc) {
				t.Errorf("%s: row for %s does not name fault func %s: %q", fx.name, fx.faultObj, fx.faultFunc, line)
			}
			if !strings.Contains(line, fmt.Sprintf(" %d ", fx.faultEvent)) &&
				!strings.Contains(line, fmt.Sprintf(" %d  ", fx.faultEvent)) {
				t.Errorf("%s: row for %s does not carry event index %d: %q", fx.name, fx.faultObj, fx.faultEvent, line)
			}
			found = true
			break
		}
		if !found {
			t.Errorf("%s: no divergence row for known-faulty object %s:\n%s", fx.name, fx.faultObj, got)
		}
	}
}
