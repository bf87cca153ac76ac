// Package faults is the systematic fault-injection layer the paper's
// evaluation relies on ("we rely on a rudimentary fault injection", §II-A):
// a typed plan of code-level faults that the simulated applications consult
// at the exact sites the paper describes.
//
// Covered faults:
//
//	SwapSendRecv        §II-G swapBug  — swap Recv;Send order at one rank
//	DeadlockStop        §II-G dlBug    — hang one rank mid-loop
//	OmitCritical        §IV-B          — drop the OpenMP critical section
//	WrongCollectiveSize §IV-C          — wrong MPI_Allreduce payload size
//	WrongReduceOp       §IV-D          — MPI_MIN -> MPI_MAX
//	SkipFunction        §V             — one rank never calls a function
package faults

import "fmt"

// Kind is a fault class.
type Kind int

const (
	// SwapSendRecv swaps the Send/Recv order in a matched exchange.
	SwapSendRecv Kind = iota
	// DeadlockStop parks the rank forever at the fault site.
	DeadlockStop
	// OmitCritical removes critical-section protection around an access.
	OmitCritical
	// WrongCollectiveSize perturbs the payload size of a collective.
	WrongCollectiveSize
	// WrongReduceOp replaces the reduction operator.
	WrongReduceOp
	// SkipFunction suppresses all calls to Fault.Target on the rank.
	SkipFunction
)

var kindNames = []string{
	"swapSendRecv", "deadlockStop", "omitCritical",
	"wrongCollectiveSize", "wrongReduceOp", "skipFunction",
}

// String names the fault class.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one injected code-level fault.
type Fault struct {
	Kind    Kind
	Process int // target process/rank; -1 matches any
	Thread  int // target thread within the process; -1 matches any
	// AfterIteration activates the fault once the site's iteration count
	// reaches this value (0 = immediately). The paper's swapBug/dlBug fire
	// "after the seventh iteration".
	AfterIteration int
	// Target names the affected function for SkipFunction.
	Target string
}

// String renders like "swapBug@rank5 after iter 7".
func (f Fault) String() string {
	s := fmt.Sprintf("%s@process %d", f.Kind, f.Process)
	if f.Thread >= 0 {
		s += fmt.Sprintf(" thread %d", f.Thread)
	}
	if f.AfterIteration > 0 {
		s += fmt.Sprintf(" after iteration %d", f.AfterIteration)
	}
	if f.Target != "" {
		s += " target " + f.Target
	}
	return s
}

// Named returns the paper's predefined fault plans by the names used in
// the evaluation sections, for CLI/example use:
//
//	none, swapBug, dlBug, ompBug, wrongSize, wrongOp, skipLeapFrog
func Named(name string) (*Plan, error) {
	switch name {
	case "none", "":
		return nil, nil
	case "swapBug": // §II-G: rank 5 swaps Send/Recv after iteration 7
		return NewPlan(Fault{Kind: SwapSendRecv, Process: 5, Thread: -1, AfterIteration: 7}), nil
	case "dlBug": // §II-G: rank 5 deadlocks after iteration 7
		return NewPlan(Fault{Kind: DeadlockStop, Process: 5, Thread: -1, AfterIteration: 7}), nil
	case "ompBug": // §IV-B: unprotected memcpy in process 6, thread 4
		return NewPlan(Fault{Kind: OmitCritical, Process: 6, Thread: 4}), nil
	case "wrongSize": // §IV-C: wrong collective size in process 2
		return NewPlan(Fault{Kind: WrongCollectiveSize, Process: 2, Thread: -1}), nil
	case "wrongOp": // §IV-D: MPI_MIN -> MPI_MAX in process 0
		return NewPlan(Fault{Kind: WrongReduceOp, Process: 0, Thread: -1}), nil
	case "skipLeapFrog": // §V: rank 2 never calls LagrangeLeapFrog
		return NewPlan(Fault{Kind: SkipFunction, Process: 2, Thread: -1, Target: "LagrangeLeapFrog"}), nil
	default:
		return nil, fmt.Errorf("faults: unknown fault name %q", name)
	}
}

// Plan is a set of faults for one run. The zero value is the fault-free
// plan (the "normal" execution).
type Plan struct {
	Faults []Fault
}

// NewPlan builds a plan from faults.
func NewPlan(fs ...Fault) *Plan { return &Plan{Faults: fs} }

// Active reports whether a fault of the given kind fires at this site.
// iteration is the site's current iteration count (pass 0 for sites without
// iterations). A nil plan is fault-free.
func (p *Plan) Active(kind Kind, process, thread, iteration int) bool {
	return p.Find(kind, process, thread, iteration) != nil
}

// Find returns the first matching fault, or nil.
func (p *Plan) Find(kind Kind, process, thread, iteration int) *Fault {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Kind != kind {
			continue
		}
		if f.Process != -1 && f.Process != process {
			continue
		}
		if f.Thread != -1 && f.Thread != thread {
			continue
		}
		if iteration < f.AfterIteration {
			continue
		}
		return f
	}
	return nil
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Faults) == 0 }

// String renders the whole plan.
func (p *Plan) String() string {
	if p.Empty() {
		return "fault-free"
	}
	s := ""
	for i, f := range p.Faults {
		if i > 0 {
			s += "; "
		}
		s += f.String()
	}
	return s
}
