package trace

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"difftrace/internal/obs"
	"difftrace/internal/resilience"
)

// The text format mirrors ParLOT's decoded output: a header naming the
// thread, then one event per line ("call <name>" / "ret <name>"), and an
// optional trailing "truncated" marker for runs aborted mid-flight.
//
//	# trace 6.4
//	call main
//	call MPI_Init
//	ret MPI_Init
//	truncated
//
// TraceSets serialize as the concatenation of their traces; the registry is
// rebuilt from the names on read.
//
// Because DiffTrace's inputs come from faulty runs, the reader supports two
// modes (ReadOptions.Mode): Strict fails on the first malformed line with a
// descriptive error naming the line and trace; Lenient salvages what it can
// — damaged lines are dropped, garbage headers quarantine the events that
// follow them, corruption-affected traces are marked Truncated and their
// call stacks re-balanced — and every decision lands in the returned
// resilience.IngestReport.

// WriteText serializes t (resolving IDs through reg) to w.
func WriteText(w io.Writer, t *Trace, reg *Registry) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# trace %d.%d\n", t.ID.Process, t.ID.Thread); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(bw, "%s %s\n", e.Kind, reg.Name(e.Func)); err != nil {
			return err
		}
	}
	if t.Truncated {
		if _, err := fmt.Fprintln(bw, "truncated"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteSetText serializes every trace of s in deterministic ID order.
func WriteSetText(w io.Writer, s *TraceSet) error {
	for _, id := range s.IDs() {
		if err := WriteText(w, s.Traces[id], s.Registry); err != nil {
			return err
		}
	}
	return nil
}

// ReadMode selects how the readers treat damaged input.
type ReadMode int

const (
	// Strict fails the whole read on the first malformed line, oversized
	// token, or exceeded bound, with an error naming the line and trace.
	Strict ReadMode = iota
	// Lenient salvages: damaged lines are dropped, the affected trace is
	// marked Truncated, and every decision is recorded in the
	// IngestReport. A lenient read never fails on malformed content.
	Lenient
)

// String returns "strict" or "lenient".
func (m ReadMode) String() string {
	if m == Lenient {
		return "lenient"
	}
	return "strict"
}

// DefaultMaxLineBytes bounds a single input line (16 MiB — matching the
// scanner ceiling earlier versions used, but now enforced without buffering
// the whole line and reported per trace instead of killing the scan).
const DefaultMaxLineBytes = 1 << 24

// ReadOptions bounds and configures a trace-set read. The zero value is a
// strict read with the default line bound and no event/trace caps.
type ReadOptions struct {
	// Mode selects Strict (default) or Lenient salvage behaviour.
	Mode ReadMode
	// MaxLineBytes bounds one line; longer lines are discarded (lenient)
	// or fail the read naming the trace (strict). 0 means
	// DefaultMaxLineBytes.
	MaxLineBytes int
	// MaxEventsPerTrace caps events kept per trace; 0 means unlimited.
	MaxEventsPerTrace int
	// MaxTraces caps distinct traces; 0 means unlimited.
	MaxTraces int
	// Obs, when non-nil, collects ingestion counters — "ingest.bytes",
	// "ingest.lines", "ingest.events", "ingest.dropped" — and the
	// "ingest.trace_events" per-trace size histogram. Populated in Strict
	// mode too (a clean strict read still reports its bytes/lines/events),
	// so manifests account for ingestion on the non-lenient path as well.
	Obs *obs.Run
}

// countingReader counts bytes consumed from the underlying reader, so the
// "ingest.bytes" counter reflects actual input volume (including discarded
// and quarantined lines) without touching the parse hot path.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (o ReadOptions) withDefaults() ReadOptions {
	if o.MaxLineBytes <= 0 {
		o.MaxLineBytes = DefaultMaxLineBytes
	}
	return o
}

// lineReader yields newline-terminated lines from a bufio.Reader without
// ever buffering more than max bytes of one line: an oversized line is
// consumed and discarded, reported via tooLong, so the scan can continue —
// unlike bufio.Scanner, whose ErrTooLong permanently kills the scan.
type lineReader struct {
	br  *bufio.Reader
	max int
}

// next returns the next line without its terminator. tooLong lines return
// (nil, true, nil). At end of input it returns io.EOF.
func (lr *lineReader) next() (line []byte, tooLong bool, err error) {
	var buf []byte
	for {
		frag, err := lr.br.ReadSlice('\n')
		switch err {
		case nil:
			if buf == nil {
				line = frag[:len(frag)-1]
			} else {
				buf = append(buf, frag...)
				line = buf[:len(buf)-1]
			}
			if len(line) > lr.max {
				return nil, true, nil
			}
			return line, false, nil
		case bufio.ErrBufferFull:
			buf = append(buf, frag...)
			if len(buf) > lr.max {
				return nil, true, lr.discardLine()
			}
		case io.EOF:
			if len(frag) > 0 || buf != nil {
				buf = append(buf, frag...)
				if len(buf) > lr.max {
					return nil, true, nil
				}
				return buf, false, nil
			}
			return nil, false, io.EOF
		default:
			return nil, false, err
		}
	}
}

// discardLine consumes input up to and including the next newline.
func (lr *lineReader) discardLine() error {
	for {
		_, err := lr.br.ReadSlice('\n')
		switch err {
		case nil, io.EOF:
			return nil
		case bufio.ErrBufferFull:
			continue
		default:
			return err
		}
	}
}

var headerPrefix = []byte("# trace ")

// ReadSetText parses the text format strictly into a TraceSet, interning
// names into reg (pass nil for a fresh registry). It fails on the first
// malformed line; use ReadSetTextContext for bounded or lenient reads. It
// remains next to ReadSetTextContext because the benchmark module under
// _perfbench calls it.
func ReadSetText(r io.Reader, reg *Registry) (*TraceSet, error) {
	s, _, err := ReadSetTextContext(nil, r, reg, ReadOptions{})
	return s, err
}

// ReadSetTextContext parses the text format under opts. The IngestReport is
// always non-nil and accounts for every event: after a lenient read,
// set.TotalEvents() == report.EventsKept + report.EventsSynthesized, and a
// lenient read returns a nil error for any input (malformed content is
// salvaged, not fatal). Strict errors name the offending line and trace.
//
// The resumable-line loop checks ctx between lines, so a hung or oversized
// ingest can be aborted mid-stream. Cancellation is an abort, not
// corruption — even a Lenient read returns the ctx error (wrapped, so
// errors.Is sees context.Canceled/DeadlineExceeded) together with the
// partial set and report accumulated so far; no salvage records are
// invented for the unread remainder. A nil ctx is never cancelled.
func ReadSetTextContext(ctx context.Context, r io.Reader, reg *Registry, opts ReadOptions) (*TraceSet, *resilience.IngestReport, error) {
	if reg == nil {
		reg = NewRegistry()
	}
	opts = opts.withDefaults()
	lenient := opts.Mode == Lenient
	rep := resilience.NewIngestReport(lenient)
	s := NewTraceSetWith(reg)
	var cr *countingReader
	if opts.Obs != nil {
		cr = &countingReader{r: r}
		r = cr
	}
	lr := &lineReader{br: bufio.NewReaderSize(r, 64<<10), max: opts.MaxLineBytes}

	var (
		cur    *Trace // trace receiving events; nil before a header
		quarID string // when non-empty, events are quarantined under this record ID
		lineno int
		// Lenient-mode bookkeeping: open-call stacks (for orphan rets and
		// auto-close) and traces carrying the explicit "truncated" marker.
		stacks map[ThreadID][]uint32
		marked map[ThreadID]bool
	)
	if lenient {
		stacks = map[ThreadID][]uint32{}
		marked = map[ThreadID]bool{}
	}
	// Ingestion accounting runs on every exit path — a strict read that
	// fails mid-file still reports the bytes/lines/events it got through.
	// The parsed-event total also feeds the job's live Progress (nil-off),
	// matching the streaming reader's decode accounting.
	defer func() {
		var n int64
		if cr != nil {
			n = cr.n
		}
		ObserveIngest(opts.Obs, n, int64(lineno), rep, s)
		obs.ProgressFrom(ctx).AddEvents(int64(s.TotalEvents()))
	}()
	// curName names the trace for error messages and salvage records.
	curName := func() string {
		if cur != nil {
			return cur.ID.String()
		}
		if quarID != "" {
			return quarID
		}
		return "?"
	}

	for {
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return s, rep, fmt.Errorf("trace: line %d (trace %s): read cancelled: %w", lineno, curName(), cerr)
			}
		}
		raw, tooLong, err := lr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// I/O failure mid-read: the stream itself is truncated.
			if !lenient {
				return nil, rep, fmt.Errorf("trace: line %d (trace %s): %w", lineno+1, curName(), err)
			}
			rep.Drop(curName(), resilience.TruncatedStream, 1)
			if cur != nil {
				cur.Truncated = true
			}
			break
		}
		lineno++
		if tooLong {
			if !lenient {
				return nil, rep, fmt.Errorf("trace: line %d (trace %s): line exceeds %d bytes", lineno, curName(), opts.MaxLineBytes)
			}
			rep.Drop(curName(), resilience.LineTooLong, 1)
			if cur != nil {
				cur.Truncated = true
			}
			continue
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		switch {
		case bytes.HasPrefix(line, headerPrefix):
			id, perr := ParseThreadID(string(line[len(headerPrefix):]))
			if perr != nil {
				if !lenient {
					return nil, rep, fmt.Errorf("trace: line %d: %w", lineno, perr)
				}
				// Garbage header: everything until the next valid header
				// belongs to a trace we cannot name — quarantine it.
				cur, quarID = nil, "?"
				rep.Quarantine(quarID, resilience.BadHeader)
				continue
			}
			if opts.MaxTraces > 0 && s.Traces[id] == nil && len(s.Traces) >= opts.MaxTraces {
				if !lenient {
					return nil, rep, fmt.Errorf("trace: line %d: trace %s exceeds MaxTraces=%d", lineno, id, opts.MaxTraces)
				}
				cur, quarID = nil, id.String()
				rep.Quarantine(quarID, resilience.TraceCap)
				continue
			}
			cur, quarID = s.Get(id), ""
		case bytes.Equal(line, []byte("truncated")):
			switch {
			case cur != nil:
				cur.Truncated = true
				if lenient {
					marked[cur.ID] = true
				}
			case !lenient:
				return nil, rep, fmt.Errorf("trace: line %d: 'truncated' before any header", lineno)
			default:
				rep.Drop(curName(), resilience.OrphanEvent, 1)
			}
		default:
			kindB, name, cut := bytes.Cut(line, []byte(" "))
			var k EventKind
			known := cut
			if cut {
				switch {
				case bytes.Equal(kindB, []byte("call")):
					k = Enter
				case bytes.Equal(kindB, []byte("ret")):
					k = Exit
				default:
					known = false
				}
			}
			if !known {
				if !lenient {
					if cur == nil {
						return nil, rep, fmt.Errorf("trace: line %d: event before any header", lineno)
					}
					if cut {
						return nil, rep, fmt.Errorf("trace: line %d (trace %s): unknown event kind %q", lineno, curName(), kindB)
					}
					return nil, rep, fmt.Errorf("trace: line %d (trace %s): malformed event %q", lineno, curName(), line)
				}
				reason := resilience.MalformedEvent
				if cut {
					reason = resilience.UnknownKind
				}
				rep.Drop(curName(), reason, 1)
				if cur != nil {
					cur.Truncated = true
				}
				continue
			}
			if cur == nil {
				if quarID != "" {
					// Event owned by a quarantined (unnamed or over-cap)
					// trace: account it under that record.
					rep.Drop(quarID, resilience.BadHeader, 1)
					continue
				}
				if !lenient {
					return nil, rep, fmt.Errorf("trace: line %d: event before any header", lineno)
				}
				rep.Drop("?", resilience.OrphanEvent, 1)
				continue
			}
			if opts.MaxEventsPerTrace > 0 && cur.Len() >= opts.MaxEventsPerTrace {
				if !lenient {
					return nil, rep, fmt.Errorf("trace: line %d: trace %s exceeds MaxEventsPerTrace=%d", lineno, curName(), opts.MaxEventsPerTrace)
				}
				rep.Drop(curName(), resilience.EventCap, 1)
				cur.Truncated = true
				continue
			}
			fn := reg.ID(string(name))
			if lenient {
				if k == Enter {
					stacks[cur.ID] = append(stacks[cur.ID], fn)
				} else if st := stacks[cur.ID]; len(st) > 0 {
					stacks[cur.ID] = st[:len(st)-1]
				} else {
					// A ret with no open call misleads the
					// nesting-sensitive stages; strict mode preserves it
					// (historical format tolerance), lenient drops and
					// records it.
					rep.Drop(curName(), resilience.UnbalancedRet, 1)
					cur.Truncated = true
					continue
				}
			}
			cur.Append(fn, k)
			rep.Keep(1)
		}
	}

	if lenient {
		autoClose(s, stacks, marked, rep)
	}
	// Backfill per-trace kept counts for the salvage records.
	for _, rec := range rep.Records() {
		if id, err := ParseThreadID(rec.ID); err == nil {
			if t, ok := s.Traces[id]; ok {
				rec.Kept = t.Len() - rec.Synthesized
			}
		}
	}
	return s, rep, nil
}

// autoClose re-balances the call stacks of corruption-affected traces by
// appending synthetic ret events. Only traces that lost input to salvage
// (their record shows drops) are repaired: a clean unbalanced trace is
// legitimate data (an aborted run writes calls whose rets never happened),
// and traces carrying the explicit "truncated" marker are left exactly as
// recorded so that write→read round-trips are lossless.
func autoClose(s *TraceSet, stacks map[ThreadID][]uint32, marked map[ThreadID]bool, rep *resilience.IngestReport) {
	for _, id := range s.IDs() {
		t := s.Traces[id]
		rec := rep.Record(id.String())
		if rec == nil || rec.Dropped == 0 || marked[id] {
			continue
		}
		st := stacks[id]
		for i := len(st) - 1; i >= 0; i-- {
			t.Append(st[i], Exit)
		}
		rep.Synthesize(id.String(), resilience.AutoClosedCall, len(st))
		t.Truncated = true
	}
}

// ObserveIngest folds one read's totals into r's ingestion counters and the
// per-trace size histogram (nil-safe, shared by the text and ParLOT binary
// readers). It runs for strict reads too: a clean non-lenient read still
// reports its bytes, lines, and events, so manifests always carry
// ingestion totals.
func ObserveIngest(r *obs.Run, bytes, lines int64, rep *resilience.IngestReport, s *TraceSet) {
	if r == nil {
		return
	}
	sizes := make([]int64, 0, len(s.Traces))
	for _, id := range s.IDs() {
		sizes = append(sizes, int64(s.Traces[id].Len()))
	}
	ObserveIngestSizes(r, bytes, lines, rep, sizes)
}

// ObserveIngestSizes is ObserveIngest for readers that never materialize a
// TraceSet: sizes carries the per-trace kept-event counts in canonical ID
// order. Both entry points fold identical totals into the run, so a
// streaming ingest of the same bytes produces the same counters and
// histogram as a materializing one.
func ObserveIngestSizes(r *obs.Run, bytes, lines int64, rep *resilience.IngestReport, sizes []int64) {
	if r == nil {
		return
	}
	r.Counter("ingest.bytes").Add(bytes)
	r.Counter("ingest.lines").Add(lines)
	r.Counter("ingest.events").Add(int64(rep.EventsKept))
	r.Counter("ingest.dropped").Add(int64(rep.EventsDropped))
	r.Counter("ingest.synthesized").Add(int64(rep.EventsSynthesized))
	r.Counter("ingest.quarantined_traces").Add(int64(rep.Quarantined()))
	h := r.Histogram("ingest.trace_events")
	for _, n := range sizes {
		h.Observe(n)
	}
}

// ParseThreadID parses "p.t" (or bare "p", meaning thread 0).
func ParseThreadID(s string) (ThreadID, error) {
	ps, ts, ok := strings.Cut(strings.TrimSpace(s), ".")
	p, err := strconv.Atoi(ps)
	if err != nil {
		return ThreadID{}, fmt.Errorf("bad thread id %q: %w", s, err)
	}
	if !ok {
		return ThreadID{Process: p}, nil
	}
	t, err := strconv.Atoi(ts)
	if err != nil {
		return ThreadID{}, fmt.Errorf("bad thread id %q: %w", s, err)
	}
	return ThreadID{Process: p, Thread: t}, nil
}
