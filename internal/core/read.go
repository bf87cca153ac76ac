package core

import (
	"bufio"
	"context"
	"io"

	"difftrace/internal/obs"
	"difftrace/internal/parlot"
	"difftrace/internal/resilience"
	"difftrace/internal/trace"
)

// ReadSource reads one execution's trace file in either on-disk format and
// is the one place that decides which reader runs: input that opens with
// parlot.Magic stays compressed as a *parlot.StreamSet, anything else
// (input shorter than the magic included) goes to the text reader and
// becomes a *trace.TraceSet. Names intern into reg (pass one registry for a
// normal/faulty pair). opts, ctx and the IngestReport behave as in the two
// readers: a lenient read salvages, a strict one fails naming what broke,
// and cancellation returns the wrapped ctx error. On error the Source is
// nil and the report says how far the read got.
func ReadSource(ctx context.Context, r io.Reader, reg *trace.Registry, opts trace.ReadOptions) (Source, *resilience.IngestReport, error) {
	br := bufio.NewReader(r)
	var (
		s   Source
		rep *resilience.IngestReport
		err error
	)
	if head, _ := br.Peek(len(parlot.Magic)); string(head) == parlot.Magic {
		s, rep, err = parlot.ReadStreamSetContext(ctx, br, reg, opts)
	} else {
		s, rep, err = trace.ReadSetTextContext(ctx, br, reg, opts)
	}
	if err != nil {
		return nil, rep, err
	}
	return s, rep, nil
}

// IngestTotals folds a ReadSource report into the run manifest's ingestion
// entry (obs stays free of the resilience types, so the conversion lives on
// the reading side).
func IngestTotals(rep *resilience.IngestReport) obs.Ingest {
	if rep == nil {
		return obs.Ingest{}
	}
	return obs.Ingest{
		Source:            rep.Source,
		Lenient:           rep.Lenient,
		EventsKept:        rep.EventsKept,
		EventsDropped:     rep.EventsDropped,
		EventsSynthesized: rep.EventsSynthesized,
		TracesAffected:    len(rep.Records()),
		Quarantined:       rep.Quarantined(),
	}
}
