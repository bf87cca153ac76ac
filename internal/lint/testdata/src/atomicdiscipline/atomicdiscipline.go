package atomicdiscipline

import "sync/atomic"

// Stats counts with sync/atomic's function API, which leaves the word
// open to plain access too.
type Stats struct {
	hits int64
}

func (s *Stats) Hit() { atomic.AddInt64(&s.hits, 1) } // want `atomic.AddInt64 lets atomic and plain access mix`

// Snap is the sanctioned escape: a snapshot taken after writers quiesce.
func (s *Stats) Snap() int64 {
	//lint:allow atomicdiscipline quiescent snapshot, writers stopped
	return atomic.LoadInt64(&s.hits)
}

// Counter is the typed form: every access goes through a method.
type Counter struct {
	hits atomic.Int64
}

func (c *Counter) Hit() int64 { return c.hits.Add(1) }

func (c *Counter) Load() int64 { return c.hits.Load() }

type node struct{ next *node }

// List publishes its head through a generic typed atomic.
type List struct {
	head atomic.Pointer[node]
}

func (l *List) Push() {
	for {
		old := l.head.Load()
		if l.head.CompareAndSwap(old, &node{next: old}) {
			return
		}
	}
}
