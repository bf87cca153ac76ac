package parlot

import (
	"bytes"
	"fmt"
	"sync"

	"difftrace/internal/trace"
)

// Level selects which functions a Tracer records, mirroring ParLOT's two
// capture granularities.
type Level int

const (
	// MainImage records only application-image functions (names not marked
	// as library functions by the instrumented app).
	MainImage Level = iota
	// AllImages records every function including library internals.
	AllImages
)

// Tracer is the process-wide tracing runtime: it owns the function-name
// registry and one ThreadTracer per traced thread. Application code is
// "instrumented" by calling Thread(id) once per thread and then Enter/Exit
// (or the Fn helper) around every traced function.
//
// Every event is simultaneously (1) appended to an in-memory trace.Trace and
// (2) pushed through the incremental compressor, so the compressed size
// statistics reported in §V come from the same stream the analysis reads.
type Tracer struct {
	Level Level

	mu      sync.Mutex
	reg     *trace.Registry
	threads map[trace.ThreadID]*ThreadTracer
}

// NewTracer returns a Tracer recording at the given level into a fresh
// registry.
func NewTracer(level Level) *Tracer {
	return NewTracerWith(level, trace.NewRegistry())
}

// NewTracerWith returns a Tracer sharing reg. DiffTrace's normal and faulty
// executions must share one registry so function and loop IDs align.
func NewTracerWith(level Level, reg *trace.Registry) *Tracer {
	return &Tracer{Level: level, reg: reg, threads: make(map[trace.ThreadID]*ThreadTracer)}
}

// Thread returns (creating on first use) the per-thread tracer for id.
// ThreadTracers are not shared between goroutines; each application thread
// uses its own, so tracing itself is contention-free — the property that
// keeps ParLOT's overhead low.
func (t *Tracer) Thread(id trace.ThreadID) *ThreadTracer {
	t.mu.Lock()
	defer t.mu.Unlock()
	th, ok := t.threads[id]
	if !ok {
		buf := &bytes.Buffer{}
		th = &ThreadTracer{
			tracer: t,
			trace:  &trace.Trace{ID: id},
			buf:    buf,
			enc:    NewEncoder(buf),
		}
		t.threads[id] = th
	}
	return th
}

// Collect flushes every per-thread compressor and returns the gathered
// TraceSet. Safe to call after the application finished or was aborted by
// the deadlock detector (traces of blocked threads stay truncated).
func (t *Tracer) Collect() *trace.TraceSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := trace.NewTraceSetWith(t.reg)
	for _, th := range t.threads {
		th.mu.Lock()
		_ = th.enc.Flush()
		set.Put(th.trace.Clone())
		th.mu.Unlock()
	}
	return set
}

// CompressedBytes sums the compressed stream sizes of all threads after a
// flush — the "2.8 KB per thread" statistic of §V.
func (t *Tracer) CompressedBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, th := range t.threads {
		th.mu.Lock()
		_ = th.enc.Flush()
		n += th.buf.Len()
		th.mu.Unlock()
	}
	return n
}

// ThreadTracer records events for one thread.
type ThreadTracer struct {
	tracer *Tracer
	mu     sync.Mutex
	trace  *trace.Trace
	buf    *bytes.Buffer
	enc    *Encoder
}

func (th *ThreadTracer) record(name string, kind trace.EventKind) {
	id := th.tracer.reg.ID(name)
	th.mu.Lock()
	if th.trace.Truncated {
		// The thread's process was aborted (deadlock kill): nothing after
		// the truncation point exists in a real ParLOT trace either.
		th.mu.Unlock()
		return
	}
	th.trace.Append(id, kind)
	th.enc.Encode(id<<1 | uint32(kind))
	th.mu.Unlock()
}

// Enter records a function-call event.
func (th *ThreadTracer) Enter(name string) { th.record(name, trace.Enter) }

// Exit records a function-return event.
func (th *ThreadTracer) Exit(name string) { th.record(name, trace.Exit) }

// Fn records entry to name and returns the matching exit, for use as
//
//	defer th.Fn("LagrangeLeapFrog")()
func (th *ThreadTracer) Fn(name string) func() {
	th.Enter(name)
	return func() { th.Exit(name) }
}

// Call traces fn wrapped in an Enter/Exit pair.
func (th *ThreadTracer) Call(name string, fn func()) {
	th.Enter(name)
	defer th.Exit(name)
	fn()
}

// MarkTruncated flags the trace as cut short (deadlock abort). The pending
// compressed run is flushed so on-disk data matches the in-memory trace.
func (th *ThreadTracer) MarkTruncated() {
	th.mu.Lock()
	defer th.mu.Unlock()
	th.trace.Truncated = true
	_ = th.enc.Flush()
}

// Compressed returns a copy of the compressed byte stream so far.
func (th *ThreadTracer) Compressed() []byte {
	th.mu.Lock()
	defer th.mu.Unlock()
	_ = th.enc.Flush()
	out := make([]byte, th.buf.Len())
	copy(out, th.buf.Bytes())
	return out
}

// DecodeCompressed decompresses a per-thread stream back into a Trace,
// verifying that the compressor is lossless. reg must be the registry the
// stream was produced with.
func DecodeCompressed(data []byte, id trace.ThreadID) (*trace.Trace, error) {
	dec := NewDecoder(bytes.NewReader(data))
	syms, err := dec.DecodeAll()
	if err != nil {
		return nil, fmt.Errorf("parlot: decode %v: %w", id, err)
	}
	tr := &trace.Trace{ID: id}
	for _, s := range syms {
		tr.Append(s>>1, trace.EventKind(s&1))
	}
	return tr, nil
}
