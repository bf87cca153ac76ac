package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/filter"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// stream-loopy: the difftrace -stream path. One op reads both PLOT1 files
// with parlot.ReadStreamSetContext and diffs them with
// core.DiffRunStreamContext under filter 11.0K10, sing.actual attributes
// and ward linkage.

const streamSpec = "11.0K10"

var streamAttr = attr.Config{Kind: attr.Single, Freq: attr.Actual}

type streamInputs struct {
	normal, faulty string // PLOT1 file paths
	plan           loopyPlan
}

func setupStream(b *bench, dir string) (*streamInputs, func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	in := &streamInputs{
		normal: filepath.Join(dir, "normal.plot"),
		faulty: filepath.Join(dir, "faulty.plot"),
		plan:   newLoopyPlan(b.seed),
	}
	for _, side := range []struct {
		path   string
		faulty bool
	}{{in.normal, false}, {in.faulty, true}} {
		blob, err := genLoopy(b.seed, in.plan, side.faulty)
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(side.path, blob, 0o644); err != nil {
			return nil, nil, err
		}
	}
	return in, func() {}, nil
}

// readStreams reads both PLOT1 files into stream sets sharing a registry.
func (in *streamInputs) read(ctx context.Context) (pair, error) {
	reg := trace.NewRegistry()
	var p pair
	for _, side := range []struct {
		path string
		dst  **parlot.StreamSet
	}{{in.normal, &p.snormal}, {in.faulty, &p.sfaulty}} {
		raw, err := os.ReadFile(side.path)
		if err != nil {
			return p, err
		}
		ss, _, err := parlot.ReadStreamSetContext(ctx, bytes.NewReader(raw), reg, trace.ReadOptions{})
		if err != nil {
			return p, fmt.Errorf("%s: %w", side.path, err)
		}
		*side.dst = ss
	}
	return p, nil
}

func streamConfig(workers int) (core.Config, error) {
	flt, err := filter.ParseSpec(streamSpec)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Filter: flt, Attr: streamAttr, Linkage: cluster.Ward, Workers: workers}, nil
}

func (in *streamInputs) op(ctx context.Context, workers int) (*core.Report, error) {
	p, err := in.read(ctx)
	if err != nil {
		return nil, err
	}
	cfg, err := streamConfig(workers)
	if err != nil {
		return nil, err
	}
	return core.DiffRunStreamContext(ctx, p.snormal, p.sfaulty, cfg)
}

// streamChecker checks each op's report: the planted process ranks first
// and the digest matches the run's first op (and the recorded one at the
// default seed).
type streamChecker struct {
	b      *bench
	in     *streamInputs
	digest string
}

func (c *streamChecker) check(rep *core.Report) error {
	top := rep.Processes.TopSuspects(1, 1e-9)
	want := strconv.Itoa(c.in.plan.faultProc)
	d := reportDigest(rep)
	if c.digest == "" {
		c.digest = d
		c.b.digest = d
		c.b.checkRecorded(d)
	}
	if len(top) == 0 || top[0] != want {
		return fmt.Errorf("top process %v, want %s first", top, want)
	}
	if d != c.digest {
		return fmt.Errorf("report digest %s differs from the run's first %s", d, c.digest)
	}
	return nil
}

// streamProps records the input-property counters of the pair.
func (b *bench) streamProps(in *streamInputs, rep *core.Report) error {
	p, err := in.read(nil)
	if err != nil {
		return err
	}
	events := p.snormal.TotalEvents() + p.sfaulty.TotalEvents()
	b.props["events"] = float64(events)
	b.props["objects"] = float64(p.snormal.Len() + len(p.snormal.Processes()))
	b.props["distinct_functions"] = float64(p.snormal.Registry.Len())
	b.props["parlot.events_per_byte"] = ratio(float64(events), float64(p.snormal.CompressedBytes()+p.sfaulty.CompressedBytes()))
	var np nlrProps
	np.add(rep)
	np.record(b)
	return nil
}

func runStream(b *bench) error {
	in, err := repeatSetup(b, func(dir string) (*streamInputs, func(), error) { return setupStream(b, dir) })
	if err != nil {
		return err
	}
	c := &streamChecker{b: b, in: in}
	var first *core.Report
	err = b.timeSerial(func() (func() error, error) {
		rep, err := in.op(context.Background(), 0)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = rep
		}
		return func() error { return c.check(rep) }, nil
	})
	if err != nil {
		return err
	}
	return b.streamProps(in, first)
}

func tracedStream(b *bench) error {
	in, _, err := setupStream(b, filepath.Join(b.dir, "setup"))
	if err != nil {
		return err
	}
	ctx := context.Background()
	c := &streamChecker{b: b, in: in}
	var first *core.Report
	u, err := timeBase(func(workers int) (time.Duration, error) {
		t0 := time.Now()
		rep, err := in.op(ctx, workers)
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if first == nil {
			first = rep
		}
		b.attempted++
		if err := c.check(rep); err != nil {
			b.fail("untraced op (workers %d): %v", workers, err)
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	if err := b.streamProps(in, first); err != nil {
		return err
	}
	cfg, err := streamConfig(1)
	if err != nil {
		return err
	}
	t := newTracer()
	start := time.Now()
	for len(t.ops) < 1 || time.Since(start) < b.seconds {
		t.beginOp("op", b.workload)
		t.begin("parlot.read")
		p, err := in.read(ctx)
		t.end()
		if err != nil {
			return err
		}
		rep, err := replayDiffRun(t, p, cfg)
		t.endOp()
		if err != nil {
			return err
		}
		b.attempted++
		if err := c.check(rep); err != nil {
			b.fail("traced op %d: %v", b.attempted, err)
		}
	}
	st := t.stats("op", func(string) bool { return true })
	return b.finishTraced(t, st, u, time.Duration(median(st.walls)*float64(time.Millisecond)))
}
