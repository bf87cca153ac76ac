package otf

import (
	"strings"
	"testing"
	"testing/quick"
)

// Record is RecordComm for an event with no peer.
func (l *Log) Record(rank int, name string, joinWith ...int) int {
	return l.RecordComm(rank, name, -1, joinWith...)
}

func TestRecordTicksClocks(t *testing.T) {
	l := NewLog(2)
	a := l.Record(0, "x")
	b := l.Record(0, "y")
	ea, eb := l.Events()[a], l.Events()[b]
	if ea.Lamport != 1 || eb.Lamport != 2 {
		t.Errorf("lamports: %d %d", ea.Lamport, eb.Lamport)
	}
	if !HappensBefore(ea, eb) {
		t.Error("program order not causal")
	}
}

func TestSendRecvJoin(t *testing.T) {
	l := NewLog(2)
	l.Record(1, "warmup") // advance rank 1 independently
	s := l.Record(0, "MPI_Send")
	r := l.Record(1, "MPI_Recv", s)
	es, er := l.Events()[s], l.Events()[r]
	if !HappensBefore(es, er) {
		t.Errorf("send %v should happen before recv %v", es.Vector, er.Vector)
	}
	if er.Lamport <= es.Lamport {
		t.Errorf("recv lamport %d not above send %d", er.Lamport, es.Lamport)
	}
}

func TestConcurrentEvents(t *testing.T) {
	l := NewLog(2)
	a := l.Record(0, "a")
	b := l.Record(1, "b")
	ea, eb := l.Events()[a], l.Events()[b]
	if HappensBefore(ea, eb) || HappensBefore(eb, ea) {
		t.Error("independent events on different ranks should be concurrent")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	l := NewLog(3)
	var contribs []int
	pre := make([]int, 3)
	for r := 0; r < 3; r++ {
		pre[r] = l.Record(r, "work")
		contribs = append(contribs, l.Record(r, "barrier.enter"))
	}
	exits := make([]int, 3)
	for r := 0; r < 3; r++ {
		exits[r] = l.Record(r, "barrier.exit", contribs...)
	}
	// Every pre-barrier event happens before every post-barrier event.
	evs := l.Events()
	for _, p := range pre {
		for _, x := range exits {
			ep, ex := evs[p], evs[x]
			if !HappensBefore(ep, ex) {
				t.Errorf("pre %v !-> post %v", ep, ex)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	l := NewLog(2)
	l.Record(0, "a")
	l.Record(1, "b")
	l.Record(0, "c")
	if err := l.Validate(); err != nil {
		t.Error(err)
	}
	if l.CriticalPathLength() != 2 {
		t.Errorf("critical path = %d", l.CriticalPathLength())
	}
}

func TestTimeline(t *testing.T) {
	l := NewLog(2)
	s := l.Record(0, "send")
	l.Record(1, "recv", s)
	out := l.Timeline()
	if !strings.Contains(out, "rank 0: send@1") || !strings.Contains(out, "rank 1: recv@2") {
		t.Errorf("timeline:\n%s", out)
	}
}

// Property: HappensBefore is a strict partial order on any recorded log
// (irreflexive, antisymmetric, transitive).
func TestQuickPartialOrder(t *testing.T) {
	f := func(ops []uint8) bool {
		l := NewLog(3)
		var ids []int
		for _, op := range ops {
			rank := int(op) % 3
			if op%2 == 0 && len(ids) > 0 {
				ids = append(ids, l.Record(rank, "join", ids[int(op)%len(ids)]))
			} else {
				ids = append(ids, l.Record(rank, "local"))
			}
		}
		evs := l.Events()
		for i := range evs {
			if HappensBefore(evs[i], evs[i]) {
				return false
			}
			for j := range evs {
				if HappensBefore(evs[i], evs[j]) && HappensBefore(evs[j], evs[i]) {
					return false
				}
				for k := range evs {
					if HappensBefore(evs[i], evs[j]) && HappensBefore(evs[j], evs[k]) &&
						!HappensBefore(evs[i], evs[k]) {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRanksAndValidateViolations(t *testing.T) {
	l := NewLog(3)
	if l.Ranks() != 3 {
		t.Errorf("Ranks = %d", l.Ranks())
	}
	// Hand-build a log with a broken Lamport sequence.
	bad := NewLog(1)
	bad.events = []Event{
		{ID: 0, Rank: 0, Peer: -1, Lamport: 2, Vector: []uint64{2}, Name: "a"},
		{ID: 1, Rank: 0, Peer: -1, Lamport: 1, Vector: []uint64{1}, Name: "b"},
	}
	if err := bad.Validate(); err == nil {
		t.Error("non-increasing lamport accepted")
	}
	// Broken program order (lamport ok, vector regresses).
	bad2 := NewLog(2)
	bad2.events = []Event{
		{ID: 0, Rank: 0, Peer: -1, Lamport: 1, Vector: []uint64{1, 5}, Name: "a"},
		{ID: 1, Rank: 0, Peer: -1, Lamport: 2, Vector: []uint64{2, 0}, Name: "b"},
	}
	if err := bad2.Validate(); err == nil {
		t.Error("vector regression accepted")
	}
}

func TestHappensBeforeArityMismatch(t *testing.T) {
	a := Event{Vector: []uint64{1}}
	b := Event{Vector: []uint64{1, 2}}
	if HappensBefore(a, b) {
		t.Error("arity mismatch should not be ordered")
	}
}

func TestRankProgress(t *testing.T) {
	l := NewLog(3)
	// Rank 0 does 3 events, rank 1 does 1 joined to rank 0's last, rank 2
	// does nothing.
	var last int
	for i := 0; i < 3; i++ {
		last = l.Record(0, "work")
	}
	l.Record(1, "recv", last)
	p := l.RankProgress()
	if p[0] != 3.0/4 || p[1] != 1 || p[2] != 0 {
		t.Errorf("progress = %v", p)
	}
	rank, score := l.LeastProgressedRank()
	if rank != 2 || score != 0 {
		t.Errorf("least progressed = %d (%f)", rank, score)
	}
	empty := NewLog(2)
	if p := empty.RankProgress(); p[0] != 0 || p[1] != 0 {
		t.Errorf("empty progress = %v", p)
	}
}
