// Package otf implements the paper's future-work item 2: "converting
// ParLOT traces into Open Trace Format (OTF2) by logically timestamping
// trace entries to mine temporal properties of functions such as
// happened-before" (Lamport 1978, the paper's reference [46]).
//
// A Log attaches Lamport and vector clocks to the communication events of
// one execution. The MPI runtime (internal/mpi) drives it: every send,
// receive, and collective ticks the owning rank's clocks and joins them
// with the clocks of the events it causally depends on. The resulting
// event stream supports exact happens-before queries (vector-clock
// comparison).
package otf

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Event is one logically timestamped occurrence on a rank. Peer is the
// other endpoint for point-to-point communication events (-1 otherwise).
type Event struct {
	ID      int
	Rank    int
	Name    string
	Peer    int
	Lamport uint64
	Vector  []uint64
}

// Log collects timestamped events for a fixed number of ranks. Safe for
// concurrent use by the runtime's rank goroutines.
type Log struct {
	mu      sync.Mutex
	n       int
	lamport []uint64
	vector  [][]uint64
	events  []Event
}

// NewLog returns a Log for n ranks.
func NewLog(n int) *Log {
	l := &Log{n: n, lamport: make([]uint64, n), vector: make([][]uint64, n)}
	for i := range l.vector {
		l.vector[i] = make([]uint64, n)
	}
	return l
}

// Ranks returns the number of ranks.
func (l *Log) Ranks() int { return l.n }

// RecordComm ticks rank's clocks, joins them with the clocks of the events
// named in joinWith (the causal predecessors: the matching send for a
// receive, every contribution for a collective exit), appends the event,
// and returns its ID for later joins. Peer tags the other endpoint of a
// point-to-point event (-1 for any other), so communication matrices can be
// mined from the log (Roth et al.'s automated pattern characterization, the
// paper's reference [41]).
func (l *Log) RecordComm(rank int, name string, peer int, joinWith ...int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Join: component-wise max with each predecessor's vector; Lamport max.
	for _, id := range joinWith {
		if id < 0 || id >= len(l.events) {
			continue
		}
		p := l.events[id]
		if p.Lamport > l.lamport[rank] {
			l.lamport[rank] = p.Lamport
		}
		for i, v := range p.Vector {
			if v > l.vector[rank][i] {
				l.vector[rank][i] = v
			}
		}
	}
	// Tick.
	l.lamport[rank]++
	l.vector[rank][rank]++

	ev := Event{
		ID:      len(l.events),
		Rank:    rank,
		Name:    name,
		Peer:    peer,
		Lamport: l.lamport[rank],
		Vector:  append([]uint64(nil), l.vector[rank]...),
	}
	l.events = append(l.events, ev)
	return ev.ID
}

// Events returns a copy of the event stream in record order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// HappensBefore reports a → b in the causal partial order (vector-clock
// dominance; strict).
func HappensBefore(a, b Event) bool {
	if len(a.Vector) != len(b.Vector) {
		return false
	}
	strictly := false
	for i := range a.Vector {
		if a.Vector[i] > b.Vector[i] {
			return false
		}
		if a.Vector[i] < b.Vector[i] {
			strictly = true
		}
	}
	return strictly
}

// Validate checks the log's internal consistency: Lamport clocks strictly
// increase along each rank, and every event's vector dominates its own
// prior events on that rank. Returns the first violation.
func (l *Log) Validate() error {
	last := make(map[int]Event)
	for _, e := range l.Events() {
		if p, ok := last[e.Rank]; ok {
			if e.Lamport <= p.Lamport {
				return fmt.Errorf("otf: rank %d lamport not increasing at event %d", e.Rank, e.ID)
			}
			if !HappensBefore(p, e) {
				return fmt.Errorf("otf: rank %d program order broken at event %d", e.Rank, e.ID)
			}
		}
		last[e.Rank] = e
	}
	return nil
}

// CriticalPathLength returns the maximum Lamport timestamp — the length of
// the execution's longest causal chain, a progress/temporal metric OTF
// consumers typically derive.
func (l *Log) CriticalPathLength() uint64 {
	max := uint64(0)
	for _, e := range l.Events() {
		if e.Lamport > max {
			max = e.Lamport
		}
	}
	return max
}

// RankProgress returns each rank's causal progress in [0, 1]: its maximum
// Lamport timestamp over the execution's critical-path length. This is the
// happens-before-based progress measure the paper plans to incorporate via
// Garg et al.'s lattice algorithms (§VI, references [31][32]): a rank far
// behind the causal frontier — a stalled or deadlocked task — scores low.
// Ranks with no events score 0.
func (l *Log) RankProgress() []float64 {
	out := make([]float64, l.n)
	maxLamport := make([]uint64, l.n)
	total := uint64(0)
	for _, e := range l.Events() {
		if e.Rank >= 0 && e.Rank < l.n && e.Lamport > maxLamport[e.Rank] {
			maxLamport[e.Rank] = e.Lamport
		}
		if e.Lamport > total {
			total = e.Lamport
		}
	}
	if total == 0 {
		return out
	}
	for i, m := range maxLamport {
		out[i] = float64(m) / float64(total)
	}
	return out
}

// LeastProgressedRank returns the rank with the lowest causal progress and
// its score.
func (l *Log) LeastProgressedRank() (int, float64) {
	p := l.RankProgress()
	best, bestScore := -1, 2.0
	for i, s := range p {
		if s < bestScore {
			best, bestScore = i, s
		}
	}
	return best, bestScore
}

// Timeline renders the events grouped by rank in Lamport order — a
// poor man's Vampir view for the examples.
func (l *Log) Timeline() string {
	events := l.Events()
	byRank := make(map[int][]Event)
	for _, e := range events {
		byRank[e.Rank] = append(byRank[e.Rank], e)
	}
	var b strings.Builder
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		fmt.Fprintf(&b, "rank %d:", r)
		for _, e := range byRank[r] {
			fmt.Fprintf(&b, " %s@%d", e.Name, e.Lamport)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
