package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/parlot"
	"difftrace/internal/rank"
	"difftrace/internal/trace"
)

// sweep-lulesh: the difftrace -sweep path. One op decodes both PLOT1 files
// once, runs rank.SweepContext over Table IX's specs x the six attribute
// configs (12 DiffRuns), and renders the table.

var sweepSpecs = []string{"11.1K10", "01.1K10"}

type sweepInputs struct {
	normal, faulty string // PLOT1 file paths
	faultRank      int
}

func setupSweep(b *bench, dir string) (*sweepInputs, func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	in := &sweepInputs{
		normal:    filepath.Join(dir, "normal.plot"),
		faulty:    filepath.Join(dir, "faulty.plot"),
		faultRank: sweepFaultRank(b.seed),
	}
	for _, side := range []struct {
		path string
		plan bool
	}{{in.normal, false}, {in.faulty, true}} {
		var set *trace.TraceSet
		var err error
		if side.plan {
			set, err = genLulesh(sweepProcs, sweepThreads, sweepEdge, skipLeapFrog(in.faultRank))
		} else {
			set, err = genLulesh(sweepProcs, sweepThreads, sweepEdge, nil)
		}
		if err != nil {
			return nil, nil, err
		}
		blob, err := plotBytes(set)
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(side.path, blob, 0o644); err != nil {
			return nil, nil, err
		}
	}
	return in, func() {}, nil
}

// read decodes both PLOT1 files into materialized sets sharing a registry.
func (in *sweepInputs) read(ctx context.Context) (pair, int, error) {
	reg := trace.NewRegistry()
	var p pair
	size := 0
	for _, side := range []struct {
		path string
		dst  **trace.TraceSet
	}{{in.normal, &p.normal}, {in.faulty, &p.faulty}} {
		raw, err := os.ReadFile(side.path)
		if err != nil {
			return p, 0, err
		}
		size += len(raw)
		set, _, err := parlot.ReadSetBinaryContext(ctx, bufio.NewReader(bytes.NewReader(raw)), reg, trace.ReadOptions{})
		if err != nil {
			return p, 0, fmt.Errorf("%s: %w", side.path, err)
		}
		*side.dst = set
	}
	return p, size, nil
}

func (in *sweepInputs) op(ctx context.Context, workers int) (*rank.Table, string, error) {
	p, _, err := in.read(ctx)
	if err != nil {
		return nil, "", err
	}
	tbl, err := rank.SweepContext(ctx, p.normal, p.faulty, rank.Request{
		Specs: sweepSpecs, Linkage: cluster.Ward, Workers: workers,
	})
	if err != nil {
		return nil, "", err
	}
	return tbl, tbl.Render(), nil
}

// sweepChecker checks each sweep: the planted rank leads the rows'
// process consensus, and the digest matches the run's first sweep (and the
// recorded one at the default seed).
type sweepChecker struct {
	b      *bench
	in     *sweepInputs
	digest string
}

func (c *sweepChecker) check(tbl *rank.Table, rendered string) error {
	d := tableDigest(tbl, rendered)
	if c.digest == "" {
		c.digest = d
		c.b.digest = d
		c.b.checkRecorded(d)
	}
	cons := tbl.Consensus(true)
	want := strconv.Itoa(c.in.faultRank)
	if len(cons) == 0 || cons[0].Name != want {
		return fmt.Errorf("process consensus %v, want %s first", cons, want)
	}
	if d != c.digest {
		return fmt.Errorf("sweep digest %s differs from the run's first %s", d, c.digest)
	}
	return nil
}

func (b *bench) sweepProps(in *sweepInputs, tbl *rank.Table) error {
	p, size, err := in.read(nil)
	if err != nil {
		return err
	}
	events := p.normal.TotalEvents() + p.faulty.TotalEvents()
	b.props["events"] = float64(events)
	b.props["objects"] = float64(len(p.normal.Traces) + len(p.normal.Processes()))
	b.props["distinct_functions"] = float64(p.normal.Registry.Len())
	b.props["parlot.events_per_byte"] = ratio(float64(events), float64(size))
	var np nlrProps
	for _, row := range tbl.Rows {
		np.add(row.Report)
	}
	np.record(b)
	return nil
}

func runSweep(b *bench) error {
	in, err := repeatSetup(b, func(dir string) (*sweepInputs, func(), error) { return setupSweep(b, dir) })
	if err != nil {
		return err
	}
	c := &sweepChecker{b: b, in: in}
	var first *rank.Table
	err = b.timeSerial(func() (func() error, error) {
		tbl, rendered, err := in.op(context.Background(), 0)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = tbl
		}
		return func() error { return c.check(tbl, rendered) }, nil
	})
	if err != nil {
		return err
	}
	return b.sweepProps(in, first)
}

func tracedSweep(b *bench) error {
	in, _, err := setupSweep(b, filepath.Join(b.dir, "setup"))
	if err != nil {
		return err
	}
	ctx := context.Background()
	c := &sweepChecker{b: b, in: in}
	var first *rank.Table
	u, err := timeBase(func(workers int) (time.Duration, error) {
		t0 := time.Now()
		tbl, rendered, err := in.op(ctx, workers)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if first == nil {
			first = tbl
		}
		b.attempted++
		if err := c.check(tbl, rendered); err != nil {
			b.fail("untraced op (workers %d): %v", workers, err)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	if err := b.sweepProps(in, first); err != nil {
		return err
	}
	t := newTracer()
	start := time.Now()
	for len(t.ops) < 1 || time.Since(start) < b.seconds {
		t.beginOp("op", b.workload)
		tbl, rendered, err := replaySweep(t, in)
		t.endOp()
		if err != nil {
			return err
		}
		b.attempted++
		if err := c.check(tbl, rendered); err != nil {
			b.fail("traced op %d: %v", b.attempted, err)
		}
	}
	st := t.stats("op", func(string) bool { return true })
	b.metrics["rank.nlr_useful_ratio"] = ratio(float64(len(sweepSpecs)), t.opCount("rank.combos")/float64(st.ops))
	return b.finishTraced(t, st, u, time.Duration(median(st.walls)*float64(time.Millisecond)))
}

// replaySweep is the traced equivalent of one sweep op: rank.SweepContext's
// combinations replayed through replayDiffRun in order, then the rows
// sorted, rendered and tallied.
func replaySweep(t *tracer, in *sweepInputs) (*rank.Table, string, error) {
	t.begin("parlot.read")
	p, _, err := in.read(nil)
	t.end()
	if err != nil {
		return nil, "", err
	}
	const topK, eps = 6, 1e-9
	var rows []rank.Row
	for _, spec := range sweepSpecs {
		t.begin("filter")
		flt, err := filter.ParseSpec(spec)
		t.end()
		if err != nil {
			return nil, "", err
		}
		for _, ac := range attr.AllConfigs() {
			t.count("rank.combos", 1)
			rep, err := replayDiffRun(t, p, core.Config{Filter: flt, Attr: ac, Linkage: cluster.Ward, Workers: 1})
			if err != nil {
				return nil, "", fmt.Errorf("%s/%s: %w", spec, ac, err)
			}
			rows = append(rows, rank.Row{
				Spec: spec, Attr: ac, BScore: rep.Threads.BScore,
				TopProcesses: rep.Processes.TopSuspects(topK, eps),
				TopThreads:   rep.Threads.TopSuspects(topK, eps),
				Report:       rep,
			})
		}
	}
	t.begin("rank.table")
	tbl := &rank.Table{Linkage: cluster.Ward, Rows: rows}
	sort.SliceStable(tbl.Rows, func(i, j int) bool { return tbl.Rows[i].BScore < tbl.Rows[j].BScore })
	rendered := tbl.Render()
	t.end()
	return tbl, rendered, nil
}
