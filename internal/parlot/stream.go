package parlot

import (
	"context"
	"fmt"
	"io"
	"sort"

	"difftrace/internal/obs"
	"difftrace/internal/resilience"
	"difftrace/internal/trace"
)

// Streaming ingestion: a StreamSet holds a trace set in its *compressed*
// form — per-thread FCM/RLE blocks plus the name remap — and replays
// decoded symbols on demand through SymbolReader. Peak memory is bounded by
// the compressed size (ParLOT ratios exceed 21,000 on loopy traces), not
// the expansion, which is the whole point of analyzing traces larger than
// RAM.
//
// ReadStreamSetContext drives the exact same walker (readBinary) as the
// materializing reader, so framing, salvage decisions, caps, and ingest
// accounting are identical by construction; FuzzStreamReader pins that
// equivalence against arbitrary bytes. Replay reproduces the *kept* event
// sequence: symbols dropped at ingest (unknown names, per-trace event caps)
// are re-dropped by position-independent rules — unknown names by the same
// table bound, cap drops by cutting off after the recorded kept count
// (drops only ever occur past the cap, so a suffix cut is exact).

// StreamSet is a compressed-resident trace set produced by ReadStreamSet.
type StreamSet struct {
	// Registry interns the function names, exactly like TraceSet.Registry
	// (pass one registry for a normal/faulty pair).
	Registry *trace.Registry

	names  []uint32 // file name index -> registry function ID
	traces map[trace.ThreadID]*StreamTrace
}

// StreamTrace is one thread's compressed event stream.
type StreamTrace struct {
	ID trace.ThreadID
	// Truncated mirrors trace.Trace.Truncated: set from the record header
	// or by lenient salvage.
	Truncated bool

	set        *StreamSet
	events     int      // kept events (replay emits exactly this many)
	compressed int      // total compressed bytes retained
	blocks     [][]byte // one block per file record, in file order
}

func newStreamSet(reg *trace.Registry) *StreamSet {
	return &StreamSet{Registry: reg, traces: map[trace.ThreadID]*StreamTrace{}}
}

// IDs returns the thread IDs in deterministic (process, thread) order.
func (ss *StreamSet) IDs() []trace.ThreadID {
	ids := make([]trace.ThreadID, 0, len(ss.traces))
	for id := range ss.traces {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Process != ids[j].Process {
			return ids[i].Process < ids[j].Process
		}
		return ids[i].Thread < ids[j].Thread
	})
	return ids
}

// Processes returns the distinct process IDs in ascending order.
func (ss *StreamSet) Processes() []int {
	seen := map[int]bool{}
	var out []int
	for id := range ss.traces {
		if !seen[id.Process] {
			seen[id.Process] = true
			out = append(out, id.Process)
		}
	}
	sort.Ints(out)
	return out
}

// Get returns the stream for id, or nil if the set has no such thread.
func (ss *StreamSet) Get(id trace.ThreadID) *StreamTrace { return ss.traces[id] }

// Len returns the number of per-thread streams.
func (ss *StreamSet) Len() int { return len(ss.traces) }

// TotalEvents sums kept events across all streams — the size of the
// expansion that is deliberately never materialized.
func (ss *StreamSet) TotalEvents() int {
	n := 0
	for _, st := range ss.traces {
		n += st.events
	}
	return n
}

// CompressedBytes sums the retained compressed block bytes.
func (ss *StreamSet) CompressedBytes() int {
	n := 0
	for _, st := range ss.traces {
		n += st.compressed
	}
	return n
}

// String matches trace.TraceSet's rendering so CLI headers are
// byte-identical across the batch and streaming paths.
func (ss *StreamSet) String() string {
	return fmt.Sprintf("TraceSet{%d traces, %d events}", len(ss.traces), ss.TotalEvents())
}

// Events returns the kept-event count for this stream.
func (st *StreamTrace) Events() int { return st.events }

// CompressedBytes returns the compressed bytes retained for this stream.
func (st *StreamTrace) CompressedBytes() int { return st.compressed }

// Reader returns a fresh pull iterator over the stream's kept events.
// Readers are independent; each replays from the start. A Reader must not
// be shared across goroutines, but distinct Readers over the same
// StreamTrace are safe concurrently (the stream itself is immutable after
// ingest).
func (st *StreamTrace) Reader() *SymbolReader { return &SymbolReader{st: st} }

// SymbolReader decodes a StreamTrace one event at a time, reproducing
// exactly the event sequence the materializing reader would have kept.
// One pooled Decoder, reset per block, serves the whole replay and goes
// back to the pool when the stream ends.
type SymbolReader struct {
	st      *StreamTrace
	block   int
	dec     *Decoder
	br      sliceByteReader
	inBlock bool // dec is positioned inside blocks[block-1]
	emitted int
}

// Next returns the next kept event as (registry function ID, kind); ok is
// false at end of stream. Decode errors cannot occur: ingest already
// classified every block, and replay stops where ingest stopped.
func (r *SymbolReader) Next() (fn uint32, kind trace.EventKind, ok bool) {
	if r.st == nil {
		return 0, 0, false
	}
	names := r.st.set.names
	for r.emitted < r.st.events {
		if !r.inBlock {
			if r.block >= len(r.st.blocks) {
				break
			}
			if r.dec == nil {
				r.dec = decoders.Get().(*Decoder)
			}
			r.br = sliceByteReader{b: r.st.blocks[r.block]}
			r.dec.Reset(&r.br)
			r.block++
			r.inBlock = true
		}
		s, err := r.dec.Decode()
		if err != nil {
			// io.EOF or the corrupt/truncated tail ingest already salvaged
			// past: move to the next block.
			r.inBlock = false
			continue
		}
		fileID := s >> 1
		if int(fileID) >= len(names) {
			// Dropped at ingest (UnknownName); re-drop on replay.
			continue
		}
		r.emitted++
		return names[fileID], trace.EventKind(s & 1), true
	}
	if r.dec != nil {
		putDecoder(r.dec)
		r.dec, r.inBlock = nil, false
	}
	return 0, 0, false
}

// Materialize fully decodes the set into a trace.TraceSet sharing the same
// registry — the bridge back to batch-only consumers (and the anchor of the
// equivalence tests: Materialize(ReadStreamSet(b)) equals ReadSetBinary(b)
// trace for trace). ctx is checked periodically; on cancellation the
// partial set and the wrapped ctx error are returned.
func (ss *StreamSet) Materialize(ctx context.Context) (*trace.TraceSet, error) {
	set := trace.NewTraceSetWith(ss.Registry)
	for _, id := range ss.IDs() {
		st := ss.traces[id]
		tr := set.Get(id)
		tr.Truncated = st.Truncated
		sr := st.Reader()
		for i := 0; ; i++ {
			if ctx != nil && i&0x1fff == 0x1fff {
				if cerr := ctx.Err(); cerr != nil {
					return set, fmt.Errorf("parlot: trace %s: materialize cancelled: %w", id, cerr)
				}
			}
			fn, kind, ok := sr.Next()
			if !ok {
				break
			}
			tr.Append(fn, kind)
		}
	}
	return set, nil
}

// streamSink retains compressed blocks and counts — the streaming
// counterpart of setSink, driven by the same readBinary walker.
type streamSink struct{ ss *StreamSet }

func (s streamSink) nameTable(fileToReg []uint32) { s.ss.names = fileToReg }

func (s streamSink) has(id trace.ThreadID) bool { return s.ss.traces[id] != nil }

func (s streamSink) count() int { return len(s.ss.traces) }

func (s streamSink) open(id trace.ThreadID) binRecord {
	st := s.ss.traces[id]
	if st == nil {
		st = &StreamTrace{ID: id, set: s.ss}
		s.ss.traces[id] = st
	}
	return st
}

func (s streamSink) kept(id trace.ThreadID) (int, bool) {
	st, ok := s.ss.traces[id]
	if !ok {
		return 0, false
	}
	return st.events, true
}

func (st *StreamTrace) len() int { return st.events }

func (st *StreamTrace) keep(fn uint32, kind trace.EventKind) { st.events++ }

func (st *StreamTrace) setTruncated(v bool) { st.Truncated = v }

func (st *StreamTrace) mark() { st.Truncated = true }

func (st *StreamTrace) block(comp []byte) {
	st.blocks = append(st.blocks, comp)
	st.compressed += len(comp)
}

// ReadStreamSet parses the binary format strictly into a StreamSet without
// materializing events, interning names into reg (nil for a fresh
// registry).
func ReadStreamSet(r io.Reader, reg *trace.Registry) (*StreamSet, error) {
	ss, _, err := ReadStreamSetOptions(r, reg, trace.ReadOptions{})
	return ss, err
}

// ReadStreamSetOptions parses the binary format under opts into a
// StreamSet. Lenient salvage, caps, quarantine, and the IngestReport behave
// exactly as in ReadSetBinaryOptions — both run the same walker — with the
// invariant ss.TotalEvents() == rep.EventsKept (the binary reader never
// synthesizes).
func ReadStreamSetOptions(r io.Reader, reg *trace.Registry, opts trace.ReadOptions) (*StreamSet, *resilience.IngestReport, error) {
	return ReadStreamSetContext(nil, r, reg, opts)
}

// ReadStreamSetContext is ReadStreamSetOptions with cooperative
// cancellation, mirroring ReadSetBinaryContext: cancellation returns the
// partial StreamSet, the report, and the wrapped ctx error.
func ReadStreamSetContext(ctx context.Context, r io.Reader, reg *trace.Registry, opts trace.ReadOptions) (*StreamSet, *resilience.IngestReport, error) {
	if reg == nil {
		reg = trace.NewRegistry()
	}
	lenient := opts.Mode == trace.Lenient
	rep := resilience.NewIngestReport(lenient)
	ss := newStreamSet(reg)
	if opts.Obs != nil {
		cr := &countingReader{r: r}
		r = cr
		// Same accounting as the materializing reader, on every exit path.
		defer func() {
			sizes := make([]int64, 0, len(ss.traces))
			for _, id := range ss.IDs() {
				sizes = append(sizes, int64(ss.traces[id].events))
			}
			trace.ObserveIngestSizes(opts.Obs, cr.n, 0, rep, sizes)
		}()
	}
	dropSet, err := readBinary(ctx, r, reg, opts, rep, streamSink{ss: ss})
	// Ingest decodes every kept event once to classify it; fold that work
	// into the job's live Progress (nil-off) so a scrape during a large
	// ingest already shows the tokenizer moving.
	obs.ProgressFrom(ctx).AddEvents(int64(ss.TotalEvents()))
	if err != nil && dropSet {
		return nil, rep, err
	}
	return ss, rep, err
}
