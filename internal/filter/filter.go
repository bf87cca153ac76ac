// Package filter implements DiffTrace's pre-processing stage: the
// user-configurable front-end that decides which trace events survive into
// the analysis (paper §II-C, Table I).
//
// Filters are usually written as compact spec strings, the notation the
// paper's ranking tables use (e.g. "11.plt.mem.ompcrit.cust.0K10"):
//
//	<flags> "." <category>* "." <image> "K" <k>
//
//	flags    two binary digits: [drop returns][drop PLT calls]
//	category zero or more named keep-categories from Table I; their union
//	         is kept (no categories = keep everything). "plt" may also
//	         appear as a segment, as an alias for the drop-PLT flag.
//	image    0 = main image, 1 = all images (which ParLOT level the traces
//	         were captured at; carried for bookkeeping in table rows)
//	k        the NLR window constant the filtered traces are summarized with
//
// So "11.plt.mem.cust.0K10" reads: drop returns and .plt entries, keep only
// memory-related calls plus the user's custom regular expressions, traces
// from a main-image capture, NLR K=10 — exactly the row label format of
// Tables VI–IX.
package filter

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"difftrace/internal/trace"
)

// Category is one of Table I's predefined keep-filters.
type Category int

const (
	// MPIAll keeps functions starting with "MPI_".
	MPIAll Category = iota
	// MPICollectives keeps MPI collective calls only.
	MPICollectives
	// MPISendRecv keeps MPI_Send/Isend/Recv/Irecv/Wait.
	MPISendRecv
	// MPIInternal keeps inner MPI library calls (MPID_/MPIR_ prefixes).
	MPIInternal
	// OMPAll keeps OpenMP runtime calls (GOMP_/omp_ prefixes).
	OMPAll
	// OMPCritical keeps critical-section enter/leave calls.
	OMPCritical
	// OMPMutex keeps OMP mutex calls.
	OMPMutex
	// Memory keeps memory-related functions (memcpy, malloc, ...).
	Memory
	// Network keeps network-related functions (tcp, socket, ...).
	Network
	// Poll keeps polling functions (poll, yield, sched, ...).
	Poll
	// Strings keeps str* functions.
	Strings
	// Custom keeps names matching the filter's Custom regexps.
	Custom
	numCategories
)

var categoryNames = map[Category]string{
	MPIAll:         "mpiall",
	MPICollectives: "mpicol",
	MPISendRecv:    "mpisr",
	MPIInternal:    "mpiint",
	OMPAll:         "omp",
	OMPCritical:    "ompcrit",
	OMPMutex:       "ompmutex",
	Memory:         "mem",
	Network:        "net",
	Poll:           "poll",
	Strings:        "str",
	Custom:         "cust",
}

// aliases admits the paper's alternative spellings.
var categoryAliases = map[string]Category{
	"mpi":     MPIAll,
	"mpiall":  MPIAll,
	"mpicol":  MPICollectives,
	"mpisr":   MPISendRecv,
	"mpiint":  MPIInternal,
	"omp":     OMPAll,
	"ompall":  OMPAll,
	"ompcrit": OMPCritical,

	"ompmutex": OMPMutex,
	"mem":      Memory,
	"memory":   Memory,
	"net":      Network,
	"network":  Network,
	"poll":     Poll,
	"str":      Strings,
	"string":   Strings,
	"cust":     Custom,
	"custom":   Custom,
}

// String returns the spec segment for c.
func (c Category) String() string {
	if n, ok := categoryNames[c]; ok {
		return n
	}
	return fmt.Sprintf("category(%d)", int(c))
}

var (
	mpiCollectiveSet = map[string]bool{
		"MPI_Barrier": true, "MPI_Allreduce": true, "MPI_AllReduce": true,
		"MPI_Bcast": true, "MPI_Reduce": true, "MPI_Alltoall": true,
		"MPI_Allgather": true, "MPI_Gather": true, "MPI_Scatter": true,
		"MPI_Scan": true, "MPI_Reduce_scatter": true,
	}
	mpiSendRecvSet = map[string]bool{
		"MPI_Send": true, "MPI_Isend": true, "MPI_Recv": true,
		"MPI_Irecv": true, "MPI_Wait": true, "MPI_Waitall": true,
	}
	memRE  = regexp.MustCompile(`(?i)(mem|alloc|free|calloc)`)
	netRE  = regexp.MustCompile(`(?i)(network|tcp|socket|send_pkt|recv_pkt)`)
	pollRE = regexp.MustCompile(`(?i)(poll|yield|sched)`)
	strRE  = regexp.MustCompile(`^str`)
)

// matchCategory reports whether a function name falls in category c.
func matchCategory(c Category, name string) bool {
	switch c {
	case MPIAll:
		return strings.HasPrefix(name, "MPI_")
	case MPICollectives:
		return mpiCollectiveSet[name]
	case MPISendRecv:
		return mpiSendRecvSet[name]
	case MPIInternal:
		return strings.HasPrefix(name, "MPID_") || strings.HasPrefix(name, "MPIR_")
	case OMPAll:
		return strings.HasPrefix(name, "GOMP_") || strings.HasPrefix(name, "omp_")
	case OMPCritical:
		return name == "GOMP_critical_start" || name == "GOMP_critical_end" ||
			name == "OMP_CRITICAL_START" || name == "OMP_CRITICAL_END"
	case OMPMutex:
		return strings.HasPrefix(name, "omp_") && strings.Contains(name, "lock") ||
			strings.Contains(strings.ToLower(name), "mutex")
	case Memory:
		return memRE.MatchString(name)
	case Network:
		return netRE.MatchString(name)
	case Poll:
		return pollRE.MatchString(name)
	case Strings:
		return strRE.MatchString(name)
	default:
		return false
	}
}

// Filter is a parsed pre-processing configuration.
type Filter struct {
	DropReturns bool
	DropPLT     bool
	Keep        []Category       // union; empty = keep everything
	Custom      []*regexp.Regexp // consulted when Keep contains Custom
	Image       int              // 0 main image, 1 all images (bookkeeping)
	K           int              // NLR constant carried in the spec
}

// New returns a Filter with the common defaults (drop returns and PLT,
// K=10, main image) keeping the given categories.
func New(keep ...Category) *Filter {
	return &Filter{DropReturns: true, DropPLT: true, Keep: keep, K: 10}
}

// WithCustom attaches custom regular expressions (Table I "Advanced") and
// ensures the Custom category is in Keep. It returns f for chaining.
func (f *Filter) WithCustom(patterns ...string) (*Filter, error) {
	for _, p := range patterns {
		re, err := regexp.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("filter: bad custom pattern %q: %w", p, err)
		}
		f.Custom = append(f.Custom, re)
	}
	if len(patterns) > 0 && !f.hasCategory(Custom) {
		f.Keep = append(f.Keep, Custom)
	}
	return f, nil
}

func (f *Filter) hasCategory(c Category) bool {
	for _, k := range f.Keep {
		if k == c {
			return true
		}
	}
	return false
}

// ParseSpec parses a spec string (see package comment). Custom patterns are
// supplied out of band because the spec only records that they apply.
func ParseSpec(spec string, customPatterns ...string) (*Filter, error) {
	segs := strings.Split(spec, ".")
	if len(segs) < 2 {
		return nil, fmt.Errorf("filter: spec %q needs at least flags and K segments", spec)
	}
	flags := segs[0]
	if len(flags) != 2 || strings.Trim(flags, "01") != "" {
		return nil, fmt.Errorf("filter: spec %q: flags %q must be two binary digits", spec, flags)
	}
	f := &Filter{DropReturns: flags[0] == '1', DropPLT: flags[1] == '1'}

	last := segs[len(segs)-1]
	img, k, ok := strings.Cut(last, "K")
	if !ok {
		return nil, fmt.Errorf("filter: spec %q: last segment %q must be <image>K<k>", spec, last)
	}
	var err error
	if f.Image, err = strconv.Atoi(img); err != nil || f.Image < 0 || f.Image > 1 {
		return nil, fmt.Errorf("filter: spec %q: bad image level %q", spec, img)
	}
	if f.K, err = strconv.Atoi(k); err != nil || f.K < 1 {
		return nil, fmt.Errorf("filter: spec %q: bad NLR constant %q", spec, k)
	}

	for _, seg := range segs[1 : len(segs)-1] {
		if seg == "plt" {
			f.DropPLT = true
			continue
		}
		c, ok := categoryAliases[seg]
		if !ok {
			return nil, fmt.Errorf("filter: spec %q: unknown category %q", spec, seg)
		}
		if !f.hasCategory(c) {
			f.Keep = append(f.Keep, c)
		}
	}
	if _, err := f.WithCustom(customPatterns...); err != nil {
		return nil, err
	}
	if f.hasCategory(Custom) && len(f.Custom) == 0 {
		return nil, fmt.Errorf("filter: spec %q uses 'cust' but no custom patterns were given", spec)
	}
	return f, nil
}

// String re-renders the spec in canonical form (categories sorted by their
// Table I order), matching the row labels of the paper's ranking tables.
func (f *Filter) String() string {
	var b strings.Builder
	if f.DropReturns {
		b.WriteByte('1')
	} else {
		b.WriteByte('0')
	}
	if f.DropPLT {
		b.WriteByte('1')
	} else {
		b.WriteByte('0')
	}
	cats := append([]Category(nil), f.Keep...)
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, c := range cats {
		b.WriteByte('.')
		b.WriteString(c.String())
	}
	fmt.Fprintf(&b, ".%dK%d", f.Image, f.K)
	return b.String()
}

// KeepName reports whether a function name survives the keep-categories
// (the drop flags are applied separately because they act on event kind and
// PLT naming).
func (f *Filter) KeepName(name string) bool {
	if f.DropPLT && isPLT(name) {
		return false
	}
	if len(f.Keep) == 0 {
		return true
	}
	for _, c := range f.Keep {
		if c == Custom {
			for _, re := range f.Custom {
				if re.MatchString(name) {
					return true
				}
			}
			continue
		}
		if matchCategory(c, name) {
			return true
		}
	}
	return false
}

func isPLT(name string) bool {
	return strings.HasSuffix(name, "@plt") || strings.HasPrefix(name, ".plt") || name == ".plt"
}

// Apply returns a new trace containing only the surviving events.
// The input trace is not modified; ID and truncation flag carry over.
func (f *Filter) Apply(t *trace.Trace, reg *trace.Registry) *trace.Trace {
	return f.Memo(reg).apply(t)
}

// ApplySet filters every trace of s, sharing s's registry.
func (f *Filter) ApplySet(s *trace.TraceSet) *trace.TraceSet {
	m := f.Memo(s.Registry)
	out := trace.NewTraceSetWith(s.Registry)
	for id, t := range s.Traces {
		out.Traces[id] = m.apply(t)
	}
	return out
}

func (m *Memo) apply(t *trace.Trace) *trace.Trace {
	out := &trace.Trace{ID: t.ID, Truncated: t.Truncated}
	for _, e := range t.Events {
		if m.f.DropReturns && e.Kind == trace.Exit {
			continue
		}
		if !m.Keep(e.Func) {
			continue
		}
		out.Events = append(out.Events, e)
	}
	return out
}

// Everything is the Table I "Advanced/Everything" filter: no filtering at
// all (returns kept, PLT kept).
func Everything() *Filter { return &Filter{K: 10} }
