package cluster_test

import (
	"bufio"
	"context"
	"os"
	"path/filepath"
	"testing"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/trace"
)

// TestLULESHGoldenWorkCounts: on the JSMs of the LULESH golden pair (8
// processes × 4 threads, skipLeapFrog), for every attribute config, level,
// side and method, no step falls back to the scan and rescans read at most
// n² cells (688 at most at n = 32, where the scan visits n³/6 ≈ 5,500
// pairs).
func TestLULESHGoldenWorkCounts(t *testing.T) {
	reg := trace.NewRegistry()
	var sides [2]core.Source
	for i, side := range []string{"normal", "faulty"} {
		f, err := os.Open(filepath.Join("..", "..", "testdata", "divergence", "lulesh_"+side+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		set, err := trace.ReadSetText(bufio.NewReader(f), reg)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		sides[i] = set
	}
	cfg := core.DefaultConfig()
	flt, err := filter.ParseSpec("11.plt.0K10")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Filter = flt
	sum, err := core.Summarize(context.Background(), sides[0], sides[1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ac := range attr.AllConfigs() {
		rep, err := sum.Analyze(context.Background(), ac, cluster.Ward)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*core.Analysis{rep.Threads.Normal, rep.Threads.Faulty, rep.Processes.Normal, rep.Processes.Faulty} {
			d := a.JSM.Distance()
			for _, m := range cluster.AllMethods() {
				_, fallbacks, rescanned, err := cluster.BuildCounted(d, m)
				if err != nil {
					t.Fatal(err)
				}
				if n := len(d); fallbacks != 0 || rescanned > n*n {
					t.Errorf("%s n=%d %s: %d steps fell back, rescans read %d cells; want 0 and at most %d",
						ac, n, m, fallbacks, rescanned, n*n)
				}
			}
		}
	}
}
