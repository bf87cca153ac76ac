package parlot

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"difftrace/internal/obs"
	"difftrace/internal/resilience"
	"difftrace/internal/trace"
)

// Compressed trace-set file format — what ParLOT actually writes to disk
// (one compressed stream per thread plus a shared name table), as opposed
// to the human-readable text format in package trace:
//
//	magic "PLOT1"
//	uvarint numNames, then per name: uvarint len + bytes (ID = index)
//	uvarint numTraces, then per trace:
//	    uvarint process, uvarint thread, byte truncated,
//	    uvarint compressedLen, compressed bytes (Encoder stream of
//	    fn<<1|kind symbols)
//
// Only names actually referenced by events are written, with IDs remapped
// densely in name order, so a file stands alone regardless of how large
// the in-memory registry grew or in which order it interned the names: the
// bytes depend only on the traces. Reading interns names into the caller's
// registry (pass the same registry for a normal/faulty pair, exactly like
// the text format).

// Magic opens every file in this format. It is spelled here only:
// core.ReadSource peeks it to choose between this reader and the text one.
const Magic = "PLOT1"

// WriteSetBinary writes set in the compressed binary format.
func WriteSetBinary(w io.Writer, set *trace.TraceSet) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}

	// Collect referenced function IDs and build the dense remap in name
	// order (a Tracer interns names in first-call order, which follows the
	// scheduler).
	names := map[uint32]string{}
	for _, tr := range set.Traces {
		for _, e := range tr.Events {
			if _, ok := names[e.Func]; !ok {
				names[e.Func] = set.Registry.Name(e.Func)
			}
		}
	}
	oldIDs := make([]uint32, 0, len(names))
	for id := range names {
		oldIDs = append(oldIDs, id)
	}
	sort.Slice(oldIDs, func(i, j int) bool { return names[oldIDs[i]] < names[oldIDs[j]] })
	remap := make(map[uint32]uint32, len(oldIDs))
	for newID, oldID := range oldIDs {
		remap[oldID] = uint32(newID)
	}

	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}

	if err := putUvarint(uint64(len(oldIDs))); err != nil {
		return err
	}
	for _, oldID := range oldIDs {
		name := names[oldID]
		if err := putUvarint(uint64(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
	}

	ids := set.IDs()
	if err := putUvarint(uint64(len(ids))); err != nil {
		return err
	}
	for _, id := range ids {
		tr := set.Traces[id]
		if err := putUvarint(uint64(id.Process)); err != nil {
			return err
		}
		if err := putUvarint(uint64(id.Thread)); err != nil {
			return err
		}
		trunc := byte(0)
		if tr.Truncated {
			trunc = 1
		}
		if err := bw.WriteByte(trunc); err != nil {
			return err
		}
		// Compress the event stream.
		var buf []byte
		{
			var bb byteSliceWriter
			enc := NewEncoder(&bb)
			for _, e := range tr.Events {
				enc.Encode(remap[e.Func]<<1 | uint32(e.Kind))
			}
			if err := enc.Flush(); err != nil {
				return err
			}
			buf = bb.b
		}
		if err := putUvarint(uint64(len(buf))); err != nil {
			return err
		}
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// byteSliceWriter is a minimal io.Writer over an owned slice.
type byteSliceWriter struct{ b []byte }

func (w *byteSliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// ReadSetBinaryContext parses the binary format under opts into a
// materialized TraceSet. The pipeline reads this format through
// core.ReadSource, which keeps it compressed (ReadStreamSetContext); this
// reader remains because the benchmark module under _perfbench calls it,
// and because it is the reference the stream reader's equivalence tests
// and FuzzStreamReader check against.
//
// In Lenient mode damage degrades instead of failing: a short or corrupt
// compressed stream keeps the symbols decoded before the failure (the trace
// is marked Truncated), the per-trace length framing lets the reader resync
// on the next trace after a corrupt stream, events referencing unknown
// name-table entries are dropped individually, and header-level damage
// (bad magic, implausible counts, a file that ends mid-table) quarantines
// the rest of the file while keeping every trace already decoded. All
// decisions are recorded in the returned IngestReport, which upholds
// set.TotalEvents() == EventsKept + EventsSynthesized. A lenient read
// returns a nil error for any input.
//
// ctx is checked between traces and periodically inside each trace's
// decoded-symbol loop, so an oversized or hung ingest can be aborted
// mid-stream. As with the text reader, cancellation overrides lenient
// salvage: the wrapped ctx error is returned together with the partial set
// and report, and nothing is quarantined on account of the unread
// remainder. A nil ctx is never cancelled.
func ReadSetBinaryContext(ctx context.Context, r io.Reader, reg *trace.Registry, opts trace.ReadOptions) (*trace.TraceSet, *resilience.IngestReport, error) {
	if reg == nil {
		reg = trace.NewRegistry()
	}
	lenient := opts.Mode == trace.Lenient
	rep := resilience.NewIngestReport(lenient)
	set := trace.NewTraceSetWith(reg)
	if opts.Obs != nil {
		cr := &countingReader{r: r}
		r = cr
		// Bytes/events accounting on every exit path, strict failures
		// included (lines don't apply to the binary format).
		defer func() { trace.ObserveIngest(opts.Obs, cr.n, 0, rep, set) }()
	}
	dropSet, err := readBinary(ctx, r, reg, opts, rep, setSink{set: set})
	// Decoded-event total feeds the job's live Progress (nil-off), matching
	// the text and streaming readers.
	obs.ProgressFrom(ctx).AddEvents(int64(set.TotalEvents()))
	if err != nil && dropSet {
		return nil, rep, err
	}
	return set, rep, err
}

// binSink receives the structure decoded by readBinary. The batch reader's
// sink materializes events into a trace.TraceSet; the streaming reader's
// sink retains only compressed blocks and counts. Both are driven by the
// one walker below, which is what makes their salvage decisions, caps, and
// ingest accounting identical by construction rather than by parallel
// maintenance of two readers.
type binSink interface {
	// nameTable delivers the file→registry function-ID remap once the name
	// table has parsed (streaming retains it to decode blocks later).
	nameTable(fileToReg []uint32)
	// has reports whether a trace for id already exists (MaxTraces admits
	// further records for known traces even at the cap).
	has(id trace.ThreadID) bool
	// count is the number of distinct traces opened so far.
	count() int
	// open returns the record handle for id, creating the trace if needed.
	open(id trace.ThreadID) binRecord
	// kept reports a trace's kept-event count for report backfill.
	kept(id trace.ThreadID) (int, bool)
}

// binRecord is one binary record's sink-side handle.
type binRecord interface {
	// len is the trace's kept-event count so far (MaxEventsPerTrace gate).
	len() int
	// keep accepts one decoded event that passed every gate.
	keep(fn uint32, kind trace.EventKind)
	// setTruncated assigns the truncation flag from the record header
	// (assignment, not OR: a later record for the same thread overwrites,
	// exactly as the materializing reader always did).
	setTruncated(bool)
	// mark forces the truncation flag on (salvage drops).
	mark()
	// block hands over the record's compressed bytes (salvaged prefix
	// included); the streaming sink retains them for replay.
	block(comp []byte)
}

// setSink materializes decoded events into a TraceSet (the batch path).
type setSink struct{ set *trace.TraceSet }

func (s setSink) nameTable([]uint32) {}

func (s setSink) has(id trace.ThreadID) bool { return s.set.Traces[id] != nil }

func (s setSink) count() int { return len(s.set.Traces) }

func (s setSink) open(id trace.ThreadID) binRecord { return setRecord{tr: s.set.Get(id)} }

func (s setSink) kept(id trace.ThreadID) (int, bool) {
	tr, ok := s.set.Traces[id]
	if !ok {
		return 0, false
	}
	return tr.Len(), true
}

type setRecord struct{ tr *trace.Trace }

func (r setRecord) len() int                             { return r.tr.Len() }
func (r setRecord) keep(fn uint32, kind trace.EventKind) { r.tr.Append(fn, kind) }
func (r setRecord) setTruncated(v bool)                  { r.tr.Truncated = v }
func (r setRecord) mark()                                { r.tr.Truncated = true }
func (r setRecord) block([]byte)                         {}

// readBinary walks one PLOT1 stream, decoding incrementally (one symbol at
// a time — the expanded trace is never materialized here; what the sink
// does with each event is its business). dropSet reports whether a strict
// trace-level failure occurred, in which case the caller must discard the
// partially populated sink (the historical contract: strict header-level
// errors return the partial set, strict trace-level errors return nil).
func readBinary(ctx context.Context, r io.Reader, reg *trace.Registry, opts trace.ReadOptions, rep *resilience.IngestReport, sink binSink) (dropSet bool, _ error) {
	lenient := opts.Mode == trace.Lenient

	// fail aborts a strict read; in lenient mode it quarantines the rest of
	// the file under id and reports success with whatever was salvaged.
	var failed bool
	fail := func(id string, reason resilience.Reason, err error) error {
		if !lenient {
			return err
		}
		rep.Quarantine(id, reason)
		failed = true
		return nil
	}

	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return false, fail("?", resilience.TruncatedStream, fmt.Errorf("parlot: reading magic: %w", err))
	}
	if string(magic) != Magic {
		return false, fail("?", resilience.CorruptStream, fmt.Errorf("parlot: bad magic %q", magic))
	}

	numNames, err := binary.ReadUvarint(br)
	if err != nil {
		return false, fail("?", resilience.TruncatedStream, fmt.Errorf("parlot: name count: %w", err))
	}
	if numNames > 1<<24 {
		return false, fail("?", resilience.CorruptStream, fmt.Errorf("parlot: implausible name count %d", numNames))
	}
	fileToReg := make([]uint32, numNames)
	for i := range fileToReg {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > 1<<20 {
			return false, fail("?", resilience.CorruptStream, fmt.Errorf("parlot: name %d length: %w", i, err))
		}
		nameBytes := make([]byte, n)
		if _, err := io.ReadFull(br, nameBytes); err != nil {
			return false, fail("?", resilience.TruncatedStream, fmt.Errorf("parlot: name %d: %w", i, err))
		}
		fileToReg[i] = reg.ID(string(nameBytes))
	}
	sink.nameTable(fileToReg)

	numTraces, err := binary.ReadUvarint(br)
	if err != nil {
		return false, fail("?", resilience.TruncatedStream, fmt.Errorf("parlot: trace count: %w", err))
	}
	if numTraces > 1<<20 {
		return false, fail("?", resilience.CorruptStream, fmt.Errorf("parlot: implausible trace count %d", numTraces))
	}
	// One pooled decoder, reset per record, decodes every record.
	var blk sliceByteReader
	dec := decoders.Get().(*Decoder)
	defer putDecoder(dec)
	for t := uint64(0); t < numTraces && !failed; t++ {
		recID := fmt.Sprintf("#%d", t) // until the header names the trace
		if ctx != nil {
			if cerr := ctx.Err(); cerr != nil {
				return false, fmt.Errorf("parlot: trace %d: read cancelled: %w", t, cerr)
			}
		}
		proc, err := binary.ReadUvarint(br)
		if err != nil {
			return false, fail(recID, resilience.TruncatedStream, fmt.Errorf("parlot: trace %d process: %w", t, err))
		}
		thr, err := binary.ReadUvarint(br)
		if err != nil {
			return false, fail(recID, resilience.TruncatedStream, fmt.Errorf("parlot: trace %d thread: %w", t, err))
		}
		id := trace.TID(int(proc), int(thr))
		recID = id.String()
		trunc, err := br.ReadByte()
		if err != nil {
			return false, fail(recID, resilience.TruncatedStream, fmt.Errorf("parlot: trace %d flags: %w", t, err))
		}
		clen, err := binary.ReadUvarint(br)
		if err != nil || clen > 1<<30 {
			return false, fail(recID, resilience.CorruptStream, fmt.Errorf("parlot: trace %d stream length: %w", t, err))
		}
		if opts.MaxTraces > 0 && !sink.has(id) && sink.count() >= opts.MaxTraces {
			if !lenient {
				return true, fmt.Errorf("parlot: trace %d (%s) exceeds MaxTraces=%d", t, id, opts.MaxTraces)
			}
			rep.Quarantine(recID, resilience.TraceCap)
			if _, err := io.CopyN(io.Discard, br, int64(clen)); err != nil {
				rep.Quarantine(recID, resilience.TruncatedStream)
				failed = true
			}
			continue
		}
		comp := make([]byte, clen)
		short := false
		if n, err := io.ReadFull(br, comp); err != nil {
			if !lenient {
				return true, fmt.Errorf("parlot: trace %d stream: %w", t, err)
			}
			// The file ends mid-stream: decode the prefix that arrived.
			comp, short, failed = comp[:n], true, true
			rep.Drop(recID, resilience.TruncatedStream, 1)
		}
		rec := sink.open(id)
		rec.setTruncated(trunc != 0 || (lenient && short))
		rec.block(comp)
		// Decode symbol by symbol. kept buffers this record's keep count so
		// a strict decompress failure reports no kept events for the record
		// (matching the historical decode-then-append reader, which failed
		// before appending anything).
		blk = sliceByteReader{b: comp}
		dec.Reset(&blk)
		kept := 0
		var decErr error
		for si := 0; ; si++ {
			if ctx != nil && si&0x1fff == 0x1fff {
				if cerr := ctx.Err(); cerr != nil {
					rep.Keep(kept)
					return false, fmt.Errorf("parlot: trace %d (%s): read cancelled: %w", t, id, cerr)
				}
			}
			s, err := dec.Decode()
			if err == io.EOF {
				break
			}
			if err != nil {
				decErr = err
				break
			}
			fileID := s >> 1
			if int(fileID) >= len(fileToReg) {
				if !lenient {
					rep.Keep(kept)
					return true, fmt.Errorf("parlot: trace %d references unknown name %d", t, fileID)
				}
				rep.Drop(recID, resilience.UnknownName, 1)
				rec.mark()
				continue
			}
			if opts.MaxEventsPerTrace > 0 && rec.len() >= opts.MaxEventsPerTrace {
				if !lenient {
					rep.Keep(kept)
					return true, fmt.Errorf("parlot: trace %d (%s) exceeds MaxEventsPerTrace=%d", t, id, opts.MaxEventsPerTrace)
				}
				rep.Drop(recID, resilience.EventCap, 1)
				rec.mark()
				continue
			}
			rec.keep(fileToReg[fileID], trace.EventKind(s&1))
			kept++
		}
		if decErr != nil {
			if !lenient {
				return true, fmt.Errorf("parlot: trace %d decompress: %w", t, decErr)
			}
			// Keep the symbols decoded before the corruption; the length
			// framing lets the next trace decode normally.
			if !short {
				rep.Drop(recID, resilience.CorruptStream, 1)
			}
			rec.mark()
		}
		rep.Keep(kept)
	}
	// Backfill per-trace kept counts for the salvage records.
	for _, recd := range rep.Records() {
		if id, err := trace.ParseThreadID(recd.ID); err == nil {
			if n, ok := sink.kept(id); ok {
				recd.Kept = n
			}
		}
	}
	return false, nil
}

// countingReader counts bytes consumed from the underlying reader for the
// "ingest.bytes" counter.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// sliceByteReader is an allocation-free io.ByteReader over a slice.
type sliceByteReader struct {
	b []byte
	i int
}

func (r *sliceByteReader) ReadByte() (byte, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	c := r.b[r.i]
	r.i++
	return c, nil
}
