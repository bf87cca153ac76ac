// Package mpi is an in-process message-passing runtime standing in for the
// real MPI library under the paper's applications (§IV, §V run MVAPICH on
// the XSEDE Bridges machine; this repository runs every rank as a goroutine
// of one process).
//
// Only the behaviours DiffTrace observes are modelled, but those are
// modelled faithfully:
//
//   - point-to-point Send/Recv with an eager limit: messages no larger than
//     the limit are buffered (Send returns immediately), larger ones
//     rendezvous (Send blocks until the matching Recv) — so the paper's
//     swapBug is a *potential* deadlock that completes under buffering,
//     exactly as §II-B describes;
//   - collectives (Barrier, Allreduce, Bcast, Reduce) matched by per-rank
//     call order, where a size mismatch (Table VII's bug) leaves the
//     collective permanently incomplete;
//   - a deadlock detector: the moment every unfinished rank is blocked
//     inside an MPI wait, no further progress is possible in this closed
//     system, so the world aborts, every blocked call returns ErrDeadlock,
//     and traces are left truncated mid-call — reproducing the truncated
//     trace shapes of Figures 6/7b;
//   - every call is recorded through a ParLOT ThreadTracer with the
//     canonical MPI function names the Table I filters match on.
package mpi

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"difftrace/internal/otf"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// ErrDeadlock is returned from every blocked call after the detector fires.
var ErrDeadlock = errors.New("mpi: deadlock detected (all live ranks blocked)")

// Op is a reduction operator for Allreduce/Reduce.
type Op int

const (
	// MIN computes the elementwise minimum.
	MIN Op = iota
	// MAX computes the elementwise maximum.
	MAX
	// SUM computes the elementwise sum.
	SUM
)

// String names the operator like MPI does.
func (o Op) String() string {
	switch o {
	case MIN:
		return "MPI_MIN"
	case MAX:
		return "MPI_MAX"
	case SUM:
		return "MPI_SUM"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

func (o Op) apply(a, b float64) float64 {
	switch o {
	case MIN:
		if a < b {
			return a
		}
		return b
	case MAX:
		if a > b {
			return a
		}
		return b
	default:
		return a + b
	}
}

// message is one in-flight point-to-point payload.
type message struct {
	src, dst, tag int
	data          []float64
	rendezvous    bool
	delivered     bool // set when a Recv consumed it (wakes rendezvous Send)
	otfSend       int  // logical-clock event ID of the send (-1 when unclocked)
}

// collSlot matches one collective call across ranks (keyed by kind and
// per-rank call index, i.e. program order on the communicator).
type collSlot struct {
	contrib   map[int][]float64
	ops       map[int]Op
	contribEv map[int]int // rank -> logical-clock event ID of its contribution
	done      bool
	result    []float64
	root      int
}

// waiter is one rank parked inside an MPI wait, with the predicate that
// would let it proceed and a human-readable description of what it waits
// for. The deadlock detector re-evaluates the predicates and, on abort,
// snapshots the descriptions into the deadlock witness.
type waiter struct {
	pred func() bool
	rank int
	desc string
}

// World is one simulated MPI job.
type World struct {
	n          int
	eagerLimit int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*message
	colls    map[string]*collSlot
	waiters  map[*waiter]struct{}
	finished int
	aborted  bool
	witness  []string // deadlock witness: one "rank N blocked in X" per rank
	clock    *otf.Log // optional logical-clock recorder
}

// NewWorld creates a world of n ranks with the given eager limit
// (in elements; Send of a payload longer than the limit rendezvous).
func NewWorld(n, eagerLimit int) *World {
	w := &World{
		n: n, eagerLimit: eagerLimit,
		colls:   make(map[string]*collSlot),
		waiters: make(map[*waiter]struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// AttachClock installs an OTF logical-clock recorder (otf.NewLog(n)).
// Every point-to-point and collective operation then ticks Lamport and
// vector clocks, enabling happened-before mining over the execution
// (paper future-work item 2). Attach before Run.
func (w *World) AttachClock(l *otf.Log) {
	//lint:allow lockdiscipline configuration before Run; the world is not yet shared
	w.clock = l
}

// record ticks the clock if one is attached; joinWith are the causal
// predecessor event IDs. Returns -1 when unclocked.
func (w *World) record(rank int, name string, joinWith ...int) int {
	return w.recordComm(rank, name, -1, joinWith...)
}

// recordComm is record with a peer rank for point-to-point events.
func (w *World) recordComm(rank int, name string, peer int, joinWith ...int) int {
	if w.clock == nil {
		return -1
	}
	valid := joinWith[:0]
	for _, id := range joinWith {
		if id >= 0 {
			valid = append(valid, id)
		}
	}
	return w.clock.RecordComm(rank, name, peer, valid...)
}

// Aborted reports whether the deadlock detector fired.
func (w *World) Aborted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.aborted
}

// abortLocked fires the deadlock abort, snapshotting the witness: which
// operation every parked rank was blocked in — the first thing an engineer
// asks of a hung job. Caller holds w.mu.
func (w *World) abortLocked() {
	if !w.aborted {
		w.aborted = true
		for wt := range w.waiters {
			w.witness = append(w.witness, fmt.Sprintf("rank %d blocked in %s", wt.rank, wt.desc))
		}
		sort.Strings(w.witness)
		w.cond.Broadcast()
	}
}

// DeadlockWitness returns, after an abort, one line per rank that was
// parked when the detector fired ("rank 5 blocked in MPI_Recv(src=4 tag=7)").
// Empty for clean runs.
func (w *World) DeadlockWitness() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.witness...)
}

// wait blocks the calling rank until pred holds, counting it as blocked for
// the deadlock detector. Caller holds w.mu. Returns ErrDeadlock if the
// world aborted while (or before) waiting.
func (w *World) wait(rank int, desc string, pred func() bool) error {
	wt := &waiter{pred: pred, rank: rank, desc: desc}
	defer delete(w.waiters, wt)
	for {
		if pred() {
			return nil
		}
		if w.aborted {
			return ErrDeadlock
		}
		w.waiters[wt] = struct{}{}
		if len(w.waiters)+w.finished >= w.n && !w.anySatisfiableLocked() {
			// Every live rank is parked and no parked predicate can fire:
			// nothing in this closed system can produce progress — a
			// deadlock, by construction of the model.
			w.abortLocked()
			return ErrDeadlock
		}
		w.cond.Wait()
		delete(w.waiters, wt)
	}
}

// anySatisfiableLocked re-evaluates every parked predicate; a true one means
// its owner merely has not woken from the broadcast yet (not a deadlock).
// Caller holds w.mu.
func (w *World) anySatisfiableLocked() bool {
	for wt := range w.waiters {
		if wt.pred() {
			return true
		}
	}
	return false
}

// Rank is one process's handle on the world. Not safe for concurrent use by
// multiple goroutines (like a real MPI rank, it belongs to one thread).
type Rank struct {
	w    *World
	rank int
	th   *parlot.ThreadTracer
	seq  map[string]int // per-collective-kind call counter
}

// NewRank attaches rank i (0-based) with an optional tracer thread. An
// out-of-range rank is a caller bug, reported as an error rather than a
// panic so harnesses embedding the simulated runtime degrade gracefully.
func (w *World) NewRank(i int, th *parlot.ThreadTracer) (*Rank, error) {
	if i < 0 || i >= w.n {
		return nil, fmt.Errorf("mpi: rank %d out of range [0,%d)", i, w.n)
	}
	return &Rank{w: w, rank: i, th: th, seq: make(map[string]int)}, nil
}

// enter/exit trace helpers; exitErr suppresses the return event when the
// call never returned (deadlock truncation).
func (r *Rank) enter(name string) {
	if r.th != nil {
		r.th.Enter(name)
	}
}

func (r *Rank) exit(name string, err error) {
	if r.th == nil {
		return
	}
	if err != nil {
		r.th.MarkTruncated()
		return
	}
	r.th.Exit(name)
}

// UntracedRank returns the rank index without recording a trace event —
// for harness bookkeeping outside the instrumented program.
func (r *Rank) UntracedRank() int { return r.rank }

// Rank returns this rank's index; traced as MPI_Comm_rank.
func (r *Rank) Rank() int {
	r.enter("MPI_Comm_rank")
	r.exit("MPI_Comm_rank", nil)
	return r.rank
}

// Size returns the world size; traced as MPI_Comm_size.
func (r *Rank) Size() int {
	r.enter("MPI_Comm_size")
	r.exit("MPI_Comm_size", nil)
	return r.w.n
}

// Init records MPI_Init.
func (r *Rank) Init() {
	r.enter("MPI_Init")
	r.exit("MPI_Init", nil)
}

// Send transmits data to dst with the given tag. Payloads within the eager
// limit are buffered; larger ones block until received.
func (r *Rank) Send(dst, tag int, data []float64) error {
	r.enter("MPI_Send")
	err := r.send(dst, tag, data)
	r.exit("MPI_Send", err)
	return err
}

func (r *Rank) send(dst, tag int, data []float64) error {
	if dst < 0 || dst >= r.w.n {
		return fmt.Errorf("mpi: send to invalid rank %d", dst)
	}
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.aborted {
		return ErrDeadlock
	}
	m := &message{
		src: r.rank, dst: dst, tag: tag,
		data:       append([]float64(nil), data...),
		rendezvous: len(data) > w.eagerLimit,
		otfSend:    w.recordComm(r.rank, "MPI_Send", dst),
	}
	w.queue = append(w.queue, m)
	w.cond.Broadcast()
	if !m.rendezvous {
		return nil
	}
	return w.wait(r.rank, fmt.Sprintf("MPI_Send(dst=%d tag=%d rendezvous)", dst, tag), func() bool { return m.delivered })
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload.
func (r *Rank) Recv(src, tag int) ([]float64, error) {
	r.enter("MPI_Recv")
	data, err := r.recv(src, tag)
	r.exit("MPI_Recv", err)
	return data, err
}

func (r *Rank) recv(src, tag int) ([]float64, error) {
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	var got *message
	find := func() bool {
		for _, m := range w.queue {
			if !m.delivered && m.dst == r.rank && m.src == src && m.tag == tag {
				got = m
				return true
			}
		}
		return false
	}
	if err := w.wait(r.rank, fmt.Sprintf("MPI_Recv(src=%d tag=%d)", src, tag), find); err != nil {
		return nil, err
	}
	got.delivered = true
	w.recordComm(r.rank, "MPI_Recv", got.src, got.otfSend)
	// Compact the queue occasionally to keep memory bounded on long runs.
	if len(w.queue) > 64 {
		live := w.queue[:0]
		for _, m := range w.queue {
			if !m.delivered {
				live = append(live, m)
			}
		}
		w.queue = live
	}
	w.cond.Broadcast()
	return got.data, nil
}

// Request is a handle for a non-blocking operation, completed by Wait.
type Request struct {
	rank   int
	isRecv bool
	src    int
	tag    int
	msg    *message // for Isend: the in-flight message
	waited bool
}

// Isend starts a non-blocking send (traced as MPI_Isend). The payload is
// buffered regardless of the eager limit — completion is deferred to Wait,
// which blocks until a rendezvous-sized message has been received.
func (r *Rank) Isend(dst, tag int, data []float64) (*Request, error) {
	r.enter("MPI_Isend")
	defer r.exit("MPI_Isend", nil)
	if dst < 0 || dst >= r.w.n {
		return nil, fmt.Errorf("mpi: isend to invalid rank %d", dst)
	}
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.aborted {
		return nil, ErrDeadlock
	}
	m := &message{
		src: r.rank, dst: dst, tag: tag,
		data:       append([]float64(nil), data...),
		rendezvous: len(data) > w.eagerLimit,
		otfSend:    w.recordComm(r.rank, "MPI_Isend", dst),
	}
	w.queue = append(w.queue, m)
	w.cond.Broadcast()
	return &Request{rank: r.rank, msg: m}, nil
}

// Irecv posts a non-blocking receive (traced as MPI_Irecv); the message is
// delivered by Wait.
func (r *Rank) Irecv(src, tag int) (*Request, error) {
	r.enter("MPI_Irecv")
	defer r.exit("MPI_Irecv", nil)
	if src < 0 || src >= r.w.n {
		return nil, fmt.Errorf("mpi: irecv from invalid rank %d", src)
	}
	r.w.mu.Lock()
	r.w.record(r.rank, "MPI_Irecv")
	r.w.mu.Unlock()
	return &Request{rank: r.rank, isRecv: true, src: src, tag: tag}, nil
}

// Wait completes a non-blocking operation (traced as MPI_Wait): for an
// Irecv it blocks until the matching message arrives and returns the
// payload; for a rendezvous-sized Isend it blocks until the message is
// consumed. Waiting twice is an error, mirroring MPI's freed requests.
func (r *Rank) Wait(req *Request) ([]float64, error) {
	r.enter("MPI_Wait")
	data, err := r.waitReq(req)
	r.exit("MPI_Wait", err)
	return data, err
}

func (r *Rank) waitReq(req *Request) ([]float64, error) {
	if req == nil || req.rank != r.rank {
		return nil, fmt.Errorf("mpi: wait on foreign or nil request")
	}
	if req.waited {
		return nil, fmt.Errorf("mpi: request already completed")
	}
	req.waited = true
	if req.isRecv {
		return r.recv(req.src, req.tag)
	}
	// Isend: rendezvous messages must be consumed before completion.
	if req.msg == nil || !req.msg.rendezvous {
		return nil, nil
	}
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	return nil, w.wait(r.rank, fmt.Sprintf("MPI_Wait(isend dst=%d tag=%d)", req.msg.dst, req.msg.tag), func() bool { return req.msg.delivered })
}

// slot fetches (creating) the collective slot for this rank's next call of
// the given kind. Caller holds w.mu.
func (r *Rank) slot(kind string) *collSlot {
	idx := r.seq[kind]
	r.seq[kind]++
	key := fmt.Sprintf("%s#%d", kind, idx)
	s, ok := r.w.colls[key]
	if !ok {
		s = &collSlot{contrib: make(map[int][]float64), contribEv: make(map[int]int)}
		r.w.colls[key] = s
	}
	return s
}

// Barrier blocks until all ranks reach the same barrier call.
func (r *Rank) Barrier() error {
	r.enter("MPI_Barrier")
	err := r.barrier()
	r.exit("MPI_Barrier", err)
	return err
}

func (r *Rank) barrier() error {
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	s := r.slot("barrier")
	s.contrib[r.rank] = nil
	s.contribEv[r.rank] = w.record(r.rank, "MPI_Barrier.enter")
	if len(s.contrib) == w.n {
		s.done = true
	}
	w.cond.Broadcast()
	if err := w.wait(r.rank, "MPI_Barrier", func() bool { return s.done }); err != nil {
		return err
	}
	w.record(r.rank, "MPI_Barrier.exit", slotEvents(s)...)
	return nil
}

// slotEvents gathers a slot's contribution event IDs (caller holds w.mu),
// sorted so the join list recorded into the trace is independent of map
// iteration order — collective exit events must be byte-identical across
// runs of the same schedule.
func slotEvents(s *collSlot) []int {
	out := make([]int, 0, len(s.contribEv))
	for _, id := range s.contribEv {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Allreduce combines data across all ranks with op and returns the result
// to every rank. All ranks must pass the same payload size; a mismatch
// (the Table VII bug) leaves every rank blocked and trips the deadlock
// detector.
func (r *Rank) Allreduce(data []float64, op Op) ([]float64, error) {
	r.enter("MPI_Allreduce")
	res, err := r.allreduce(data, op)
	r.exit("MPI_Allreduce", err)
	return res, err
}

func (r *Rank) allreduce(data []float64, op Op) ([]float64, error) {
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	s := r.slot("allreduce")
	if s.ops == nil {
		s.ops = make(map[int]Op)
	}
	s.contrib[r.rank] = append([]float64(nil), data...)
	s.ops[r.rank] = op
	s.contribEv[r.rank] = w.record(r.rank, "MPI_Allreduce.enter")
	if len(s.contrib) == w.n {
		if combined, ok := treeCombine(s.contrib, s.ops, w.n); ok {
			s.result = combined
			s.done = true
		}
		// Size mismatch: slot stays incomplete forever — the deadlock.
	}
	w.cond.Broadcast()
	if err := w.wait(r.rank, fmt.Sprintf("MPI_Allreduce(size=%d)", len(data)), func() bool { return s.done }); err != nil {
		return nil, err
	}
	w.record(r.rank, "MPI_Allreduce.exit", slotEvents(s)...)
	return append([]float64(nil), s.result...), nil
}

// treeCombine folds the contributions along a binary reduction tree, each
// merge applying the operator of the rank performing it — an
// MVAPICH-style recursive reduction, so every rank receives the same
// result. With uniform operators this is the standard reduction; with
// mismatched operators (the §IV-D injected bug, undefined behaviour in
// real MPI) the buggy rank's operator corrupts exactly the merges its
// subtree performs, deterministically. ok=false when sizes mismatch.
func treeCombine(contrib map[int][]float64, ops map[int]Op, n int) ([]float64, bool) {
	if !sizesMatch(contrib, n) {
		return nil, false
	}
	vals := make([][]float64, n)
	for rank := 0; rank < n; rank++ {
		vals[rank] = append([]float64(nil), contrib[rank]...)
	}
	for stride := 1; stride < n; stride *= 2 {
		for i := 0; i+stride < n; i += 2 * stride {
			op := ops[i] // the lower rank of the pair performs the merge
			for k := range vals[i] {
				vals[i][k] = op.apply(vals[i][k], vals[i+stride][k])
			}
		}
	}
	return vals[0], true
}

// sizesMatch reports whether all n contributions arrived with one payload
// size (the collective's completion condition).
func sizesMatch(contrib map[int][]float64, n int) bool {
	size := -1
	for rank := 0; rank < n; rank++ {
		data, ok := contrib[rank]
		if !ok {
			return false
		}
		if size == -1 {
			size = len(data)
		} else if len(data) != size {
			return false
		}
	}
	return true
}

// combine folds all contributions in rank order with one operator;
// ok=false when sizes mismatch.
func combine(contrib map[int][]float64, op Op) ([]float64, bool) {
	var out []float64
	for rank := 0; rank < len(contrib); rank++ {
		data, ok := contrib[rank]
		if !ok {
			return nil, false
		}
		if out == nil {
			out = append([]float64(nil), data...)
			continue
		}
		if len(data) != len(out) {
			return nil, false
		}
		for i, v := range data {
			out[i] = op.apply(out[i], v)
		}
	}
	return out, true
}

// Bcast sends root's data to every rank. The root deposits and returns
// immediately (eager broadcast); non-roots block until the data arrives.
func (r *Rank) Bcast(root int, data []float64) ([]float64, error) {
	r.enter("MPI_Bcast")
	res, err := r.bcast(root, data)
	r.exit("MPI_Bcast", err)
	return res, err
}

func (r *Rank) bcast(root int, data []float64) ([]float64, error) {
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	s := r.slot("bcast")
	if r.rank == root {
		s.result = append([]float64(nil), data...)
		s.done = true
		s.root = root
		s.contribEv[root] = w.record(root, "MPI_Bcast.root")
		w.cond.Broadcast()
		return append([]float64(nil), s.result...), nil
	}
	if err := w.wait(r.rank, fmt.Sprintf("MPI_Bcast(root=%d)", root), func() bool { return s.done }); err != nil {
		return nil, err
	}
	w.record(r.rank, "MPI_Bcast.exit", s.contribEv[s.root])
	return append([]float64(nil), s.result...), nil
}

// Reduce combines data across ranks onto root. Non-roots deposit and return
// immediately; the root blocks until every contribution arrived.
func (r *Rank) Reduce(root int, data []float64, op Op) ([]float64, error) {
	r.enter("MPI_Reduce")
	res, err := r.reduce(root, data, op)
	r.exit("MPI_Reduce", err)
	return res, err
}

func (r *Rank) reduce(root int, data []float64, op Op) ([]float64, error) {
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	s := r.slot("reduce")
	s.contrib[r.rank] = append([]float64(nil), data...)
	s.contribEv[r.rank] = w.record(r.rank, "MPI_Reduce.enter")
	w.cond.Broadcast()
	if r.rank != root {
		return nil, nil
	}
	if err := w.wait(r.rank, "MPI_Reduce(root)", func() bool { return len(s.contrib) == w.n }); err != nil {
		return nil, err
	}
	w.record(root, "MPI_Reduce.exit", slotEvents(s)...)
	combined, ok := combine(s.contrib, op)
	if !ok {
		return nil, fmt.Errorf("mpi: reduce size mismatch at root %d", root)
	}
	return combined, nil
}

// Finalize blocks until every rank calls it (and records MPI_Finalize).
func (r *Rank) Finalize() error {
	r.enter("MPI_Finalize")
	err := r.finalize()
	r.exit("MPI_Finalize", err)
	return err
}

func (r *Rank) finalize() error {
	w := r.w
	w.mu.Lock()
	defer w.mu.Unlock()
	s := r.slot("finalize")
	s.contrib[r.rank] = nil
	s.contribEv[r.rank] = w.record(r.rank, "MPI_Finalize.enter")
	if len(s.contrib) == w.n {
		s.done = true
	}
	w.cond.Broadcast()
	if err := w.wait(r.rank, "MPI_Finalize", func() bool { return s.done }); err != nil {
		return err
	}
	w.record(r.rank, "MPI_Finalize.exit", slotEvents(s)...)
	return nil
}

// Hang blocks forever (until the deadlock detector aborts the world) —
// the primitive behind dlBug's "actual deadlock".
func (r *Rank) Hang(traceAs string) error {
	r.enter(traceAs)
	w := r.w
	w.mu.Lock()
	err := w.wait(r.rank, traceAs+"(hang)", func() bool { return false })
	w.mu.Unlock()
	r.exit(traceAs, err)
	return err
}

// Run spawns body for every rank as its own goroutine and waits for the job
// to finish. Each rank gets a tracer thread (process=rank, thread=0) from
// tracer (which may be nil). Returns ErrDeadlock if the detector fired.
func Run(n, eagerLimit int, tracer *parlot.Tracer, body func(r *Rank) error) error {
	w := NewWorld(n, eagerLimit)
	return w.Run(tracer, body)
}

// Run executes body on every rank of an existing world.
func (w *World) Run(tracer *parlot.Tracer, body func(r *Rank) error) error {
	var wg sync.WaitGroup
	errs := make([]error, w.n)
	for i := 0; i < w.n; i++ {
		wg.Add(1)
		//lint:allow nakedgoroutine simulated MPI ranks model the traced app and must all be runnable at once or the deadlock detector would deadlock itself; this is not pipeline concurrency
		go func(rankNo int) {
			defer wg.Done()
			var th *parlot.ThreadTracer
			if tracer != nil {
				th = tracer.Thread(trace.TID(rankNo, 0))
			}
			r, err := w.NewRank(rankNo, th)
			if err != nil {
				errs[rankNo] = err
				w.mu.Lock()
				w.finished++
				w.cond.Broadcast()
				w.mu.Unlock()
				return
			}
			errs[rankNo] = body(r)
			w.mu.Lock()
			w.finished++
			// Waking every waiter forces a predicate re-check; a waiter
			// whose predicate is still false re-enters wait(), where the
			// blocked+finished accounting now detects a true deadlock.
			w.cond.Broadcast()
			w.mu.Unlock()
		}(i)
	}
	wg.Wait()
	if w.Aborted() {
		return ErrDeadlock
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
