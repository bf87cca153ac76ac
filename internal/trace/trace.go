// Package trace defines the in-memory model of whole-program function-call
// traces as produced by the ParLOT substrate and consumed by every DiffTrace
// analysis stage.
//
// A Trace is the totally ordered sequence of events observed by one thread of
// one process. A TraceSet groups the per-thread traces of a single execution
// (one normal run, one faulty run). Function names are interned in a Registry
// so that traces store compact integer IDs, mirroring ParLOT's on-the-wire
// format.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// EventKind distinguishes function entries from exits. ParLOT records both;
// the pre-processing stage usually filters exits out (Table I "Returns").
type EventKind uint8

const (
	// Enter marks a function-call event.
	Enter EventKind = iota
	// Exit marks a function-return event.
	Exit
)

// String returns "call" or "ret".
func (k EventKind) String() string {
	if k == Enter {
		return "call"
	}
	return "ret"
}

// Event is one record in a trace: the interned function ID plus whether the
// function was entered or exited.
type Event struct {
	Func uint32
	Kind EventKind
}

// ThreadID identifies a traced thread as <process>.<thread>, e.g. "6.4" in
// the paper's ranking tables. Thread 0 is the master (MPI process) thread.
type ThreadID struct {
	Process int
	Thread  int
}

// TID is shorthand for constructing a ThreadID.
func TID(process, thread int) ThreadID { return ThreadID{Process: process, Thread: thread} }

// String formats the ID the way the paper's tables do ("6.4").
func (t ThreadID) String() string { return fmt.Sprintf("%d.%d", t.Process, t.Thread) }

// Less orders thread IDs by process then thread.
func (t ThreadID) Less(o ThreadID) bool {
	if t.Process != o.Process {
		return t.Process < o.Process
	}
	return t.Thread < o.Thread
}

// Registry interns function names to dense uint32 IDs. It is safe for
// concurrent use: application threads register and look up names while
// tracing.
type Registry struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	names []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ids: make(map[string]uint32)}
}

// ID interns name and returns its dense ID.
func (r *Registry) ID(name string) uint32 {
	r.mu.RLock()
	id, ok := r.ids[name]
	r.mu.RUnlock()
	if ok {
		return id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[name]; ok {
		return id
	}
	id = uint32(len(r.names))
	r.ids[name] = id
	r.names = append(r.names, name)
	return id
}

// Name returns the name for id, or "?<id>" if the ID was never interned.
func (r *Registry) Name(id uint32) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(id) < len(r.names) {
		return r.names[id]
	}
	return fmt.Sprintf("?%d", id)
}

// Lookup returns the ID for name without interning it.
func (r *Registry) Lookup(name string) (uint32, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	id, ok := r.ids[name]
	return id, ok
}

// Len reports how many distinct names have been interned.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.names)
}

// Names returns a copy of all interned names, indexed by ID.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.names))
	copy(out, r.names)
	return out
}

// Trace is the event sequence of one thread.
type Trace struct {
	ID        ThreadID
	Events    []Event
	Truncated bool // true when the run was aborted (e.g. deadlock) mid-trace
}

// Append records one event.
func (t *Trace) Append(fn uint32, kind EventKind) {
	t.Events = append(t.Events, Event{Func: fn, Kind: kind})
}

// Len reports the number of events.
func (t *Trace) Len() int { return len(t.Events) }

// Calls returns only the Enter events' function IDs, in order. Most of the
// pipeline operates on calls after the "Returns" filter.
func (t *Trace) Calls() []uint32 {
	out := make([]uint32, 0, len(t.Events))
	for _, e := range t.Events {
		if e.Kind == Enter {
			out = append(out, e.Func)
		}
	}
	return out
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	ev := make([]Event, len(t.Events))
	copy(ev, t.Events)
	return &Trace{ID: t.ID, Events: ev, Truncated: t.Truncated}
}

// Names resolves the Enter events to function names via reg.
func (t *Trace) Names(reg *Registry) []string {
	calls := t.Calls()
	out := make([]string, len(calls))
	for i, id := range calls {
		out[i] = reg.Name(id)
	}
	return out
}

// TraceSet is every per-thread trace of one execution plus the registry that
// interned its function names.
type TraceSet struct {
	Registry *Registry
	Traces   map[ThreadID]*Trace
}

// NewTraceSet returns an empty trace set with a fresh registry.
func NewTraceSet() *TraceSet {
	return &TraceSet{Registry: NewRegistry(), Traces: make(map[ThreadID]*Trace)}
}

// NewTraceSetWith returns an empty trace set sharing reg. DiffTrace requires
// the normal and faulty executions to share a registry so that function IDs
// and loop IDs are comparable.
func NewTraceSetWith(reg *Registry) *TraceSet {
	return &TraceSet{Registry: reg, Traces: make(map[ThreadID]*Trace)}
}

// Get returns the trace for id, creating it if needed.
func (s *TraceSet) Get(id ThreadID) *Trace {
	t, ok := s.Traces[id]
	if !ok {
		t = &Trace{ID: id}
		s.Traces[id] = t
	}
	return t
}

// Put installs (or replaces) a trace.
func (s *TraceSet) Put(t *Trace) { s.Traces[t.ID] = t }

// IDs returns all thread IDs in deterministic (process, thread) order.
func (s *TraceSet) IDs() []ThreadID {
	out := make([]ThreadID, 0, len(s.Traces))
	for id := range s.Traces {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Processes returns the distinct process numbers in ascending order.
func (s *TraceSet) Processes() []int {
	seen := map[int]bool{}
	for id := range s.Traces {
		seen[id.Process] = true
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Funcs returns the registry that interned the set's function names (the
// Registry field, under the name the pipeline's event-source contract
// shares with compressed sets).
func (s *TraceSet) Funcs() *Registry { return s.Registry }

// EventReader yields one thread's events in trace order.
type EventReader interface {
	// Next returns the next event's function ID and kind; ok is false at
	// the end of the trace.
	Next() (fn uint32, kind EventKind, ok bool)
}

// Reader returns a fresh reader over the events of thread id; a thread the
// set does not hold reads as empty.
func (s *TraceSet) Reader(id ThreadID) EventReader {
	r := &eventReader{}
	if t := s.Traces[id]; t != nil {
		r.events = t.Events
	}
	return r
}

// eventReader walks a materialized event slice.
type eventReader struct{ events []Event }

func (r *eventReader) Next() (uint32, EventKind, bool) {
	if len(r.events) == 0 {
		return 0, 0, false
	}
	e := r.events[0]
	r.events = r.events[1:]
	return e.Func, e.Kind, true
}

// ProcessTrace concatenates all thread traces of process p (thread order) into
// one trace, used when diffing at process granularity.
func (s *TraceSet) ProcessTrace(p int) *Trace {
	merged := &Trace{ID: ThreadID{Process: p, Thread: -1}}
	for _, id := range s.IDs() {
		if id.Process != p {
			continue
		}
		t := s.Traces[id]
		merged.Events = append(merged.Events, t.Events...)
		merged.Truncated = merged.Truncated || t.Truncated
	}
	return merged
}

// TotalEvents sums event counts over all traces.
func (s *TraceSet) TotalEvents() int {
	n := 0
	for _, t := range s.Traces {
		n += len(t.Events)
	}
	return n
}

// DistinctFuncs reports how many distinct function IDs appear across all
// traces (the §V "410 distinct function calls" statistic).
func (s *TraceSet) DistinctFuncs() int {
	seen := map[uint32]bool{}
	for _, t := range s.Traces {
		for _, e := range t.Events {
			seen[e.Func] = true
		}
	}
	return len(seen)
}

// String renders a short summary like "TraceSet{32 traces, 421503 events}".
func (s *TraceSet) String() string {
	return fmt.Sprintf("TraceSet{%d traces, %d events}", len(s.Traces), s.TotalEvents())
}

// Dump renders the calls of every trace side by side (like Table II) up to
// maxRows rows; useful in examples and debugging.
func (s *TraceSet) Dump(maxRows int) string {
	ids := s.IDs()
	cols := make([][]string, len(ids))
	width := make([]int, len(ids))
	rows := 0
	for i, id := range ids {
		cols[i] = s.Traces[id].Names(s.Registry)
		if len(cols[i]) > rows {
			rows = len(cols[i])
		}
		width[i] = len("T" + id.String())
		for _, nm := range cols[i] {
			if len(nm) > width[i] {
				width[i] = len(nm)
			}
		}
	}
	if maxRows > 0 && rows > maxRows {
		rows = maxRows
	}
	var b strings.Builder
	for i, id := range ids {
		fmt.Fprintf(&b, "%-*s  ", width[i], "T"+id.String())
	}
	b.WriteByte('\n')
	for r := 0; r < rows; r++ {
		for i := range ids {
			cell := ""
			if r < len(cols[i]) {
				cell = cols[i][r]
			}
			fmt.Fprintf(&b, "%-*s  ", width[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
