package nlr

import (
	"sync"

	"difftrace/internal/trace"
)

// Vocab resolves a registry's events to Summarizer tokens once, up front:
// each (function, kind) pair gets the dense ID of its token name — the
// function's name for an entry, "ret:<name>" for an exit — so equal IDs
// mean equal names, as PushToken requires. Lookups are two slice reads with
// no lock, no name lookup and no string building, which is what keeps the
// per-event path of a summarization free of all three. A Vocab is safe for
// concurrent use.
type Vocab struct {
	reg   *trace.Registry
	toks  []uint32 // indexed by fn<<1 | kind
	names []string // indexed by fn<<1 | kind

	// Functions interned into reg after NewVocab resolve through ids under
	// mu; events of a trace read before the Vocab was built never do.
	mu  sync.Mutex
	ids map[string]uint32
}

// NewVocab resolves every function reg holds now.
func NewVocab(reg *trace.Registry) *Vocab {
	fns := reg.Names()
	v := &Vocab{
		reg:   reg,
		toks:  make([]uint32, 2*len(fns)),
		names: make([]string, 2*len(fns)),
		ids:   make(map[string]uint32, 2*len(fns)),
	}
	for fn, name := range fns {
		for _, kind := range []trace.EventKind{trace.Enter, trace.Exit} {
			i := fn<<1 | kindBit(kind)
			v.names[i] = tokenName(name, kind)
			v.toks[i] = v.intern(v.names[i])
		}
	}
	return v
}

// kindBit is 1 for an exit and 0 for any other kind, which renders as an
// entry.
func kindBit(kind trace.EventKind) int {
	if kind == trace.Exit {
		return 1
	}
	return 0
}

func tokenName(name string, kind trace.EventKind) string {
	if kind == trace.Exit {
		return "ret:" + name
	}
	return name
}

func (v *Vocab) intern(name string) uint32 {
	id, ok := v.ids[name]
	if !ok {
		id = uint32(len(v.ids))
		v.ids[name] = id
	}
	return id
}

// Token returns the token of a (function, kind) event and its name, ready
// for Summarizer.PushToken.
func (v *Vocab) Token(fn uint32, kind trace.EventKind) (uint32, string) {
	if i := int(fn)<<1 | kindBit(kind); i < len(v.toks) {
		return v.toks[i], v.names[i]
	}
	return v.late(fn, kind)
}

// Name returns the function's name.
func (v *Vocab) Name(fn uint32) string {
	_, name := v.Token(fn, trace.Enter)
	return name
}

// late resolves a function the registry did not hold at NewVocab.
func (v *Vocab) late(fn uint32, kind trace.EventKind) (uint32, string) {
	name := tokenName(v.reg.Name(fn), kind)
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.intern(name), name
}
