// Package ilcs reproduces the paper's §IV case study: the ILCS framework
// (Burtscher & Rabeti's scalable Iterative Local Champion Search) running a
// Traveling Salesman 2-opt solver, ported line-for-line from Listing 1.
//
// Every MPI process runs one master thread (thread 0) and a set of OpenMP
// worker threads. Workers repeatedly call CPU_Exec (a real 2-opt TSP local
// search) and record improved local champions under an OpenMP critical
// section; the master periodically Allreduces the global champion value and
// its owner, broadcasts the champion tour, and terminates the search once
// the champion stops changing. Evaluation turns go to the workers in an
// order drawn from the seed, so the per-thread CPU_Exec call counts are
// uneven, as the paper notes for Figure 7a, yet the same for every run of
// one configuration.
//
// Fault sites (§IV-B/C/D):
//
//   - OmitCritical{process, thread}: that worker's champion update skips
//     the critical section — its GOMP_critical_* calls vanish from the
//     trace (the unprotected-memcpy race of Table VI);
//   - WrongCollectiveSize{process}: the master passes a wrong payload size
//     to its first champion Allreduce, deadlocking the whole job early
//     (Table VII);
//   - WrongReduceOp{process}: MPI_MIN becomes MPI_MAX in the champion
//     Allreduce, silently changing the search's semantics (Table VIII).
package ilcs

import (
	"fmt"
	"math"
	"math/rand" //lint:allow wallclock seeded per (rank,tid) from Config.Seed only — worker RNG streams are a pure function of the config
	"sync"
	"sync/atomic"

	"difftrace/internal/faults"
	"difftrace/internal/mpi"
	"difftrace/internal/omp"
	"difftrace/internal/otf"
	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// Config parameterizes one ILCS-TSP run.
type Config struct {
	Procs   int   // MPI processes (the paper uses 8)
	Workers int   // OpenMP worker threads per process (the paper uses 4)
	Cities  int   // TSP instance size
	Seed    int64 // instance + search seed
	// StableRounds terminates the search after this many champion rounds
	// without change; MaxRounds caps the loop regardless (the wrong-op bug
	// keeps the champion churning, so the cap bounds the run).
	StableRounds int
	MaxRounds    int
	// EvalsPerRound paces the master: each champion round waits until the
	// node's workers completed this many further CPU_Exec evaluations, so
	// a "round" represents real search progress (on the paper's cluster
	// the pacing is wall-clock time; here it is logical).
	EvalsPerRound int
	Plan          *faults.Plan
	Tracer        *parlot.Tracer
	Clock         *otf.Log // optional logical-clock recorder (otf.NewLog(Procs))
}

// eagerLimit is the MPI eager limit in elements.
const eagerLimit = 1 << 16

func (c *Config) defaults() {
	if c.Procs == 0 {
		c.Procs = 8
	}
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Cities == 0 {
		c.Cities = 16
	}
	if c.StableRounds == 0 {
		c.StableRounds = 3
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 24
	}
	if c.EvalsPerRound == 0 {
		c.EvalsPerRound = 8
	}
}

// Result reports a run's outcome.
type Result struct {
	// Champion is the tour length the system *reports*: the last champion
	// value broadcast to rank 0. Under the §IV-D wrong-operation fault this
	// is corrupted — "the modified code computes the worst answer".
	Champion float64
	// BestFound is the best tour length any worker actually found (the
	// ground truth the report should have matched).
	BestFound  float64
	Rounds     []int // champion rounds executed per master
	Deadlocked bool
	// Witness lists, for a deadlocked run, the operation each rank was
	// blocked in when the detector fired.
	Witness []string
}

// champEntry is one recorded local champion: its tour length and the tour
// itself (Listing 1's champ[rank] structure of champSize elements).
type champEntry struct {
	val  float64
	tour []int
}

// champBox holds one worker's local champion. Entries are immutable and the
// pointer is swapped atomically, so the *injected* race (OmitCritical)
// perturbs the trace without introducing an actual torn read in the
// simulator (the paper's race corrupts data; ours corrupts the evidence the
// debugger sees, which is the part DiffTrace analyzes).
type champBox struct{ p atomic.Pointer[champEntry] }

func (c *champBox) load() float64 {
	if e := c.p.Load(); e != nil {
		return e.val
	}
	return math.Inf(1)
}

func (c *champBox) entry() *champEntry { return c.p.Load() }

func (c *champBox) store(e *champEntry) { c.p.Store(e) }

// Run executes the job. Deadlocks (from injected faults) are reported in
// the Result; other errors are returned.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.Procs < 2 {
		return nil, fmt.Errorf("ilcs: need at least 2 processes")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("ilcs: need at least 1 worker thread")
	}
	problem := newTSP(cfg.Cities, cfg.Seed)

	res := &Result{Rounds: make([]int, cfg.Procs)}
	var mu sync.Mutex
	world := mpi.NewWorld(cfg.Procs, eagerLimit)
	if cfg.Clock != nil {
		world.AttachClock(cfg.Clock)
	}
	err := world.Run(cfg.Tracer, func(r *mpi.Rank) error {
		rounds, reported, best, err := nodeMain(r, &cfg, problem)
		mu.Lock()
		res.Rounds[r.UntracedRank()] = rounds
		if r.UntracedRank() == 0 {
			res.Champion = reported
			res.BestFound = best
		}
		mu.Unlock()
		return err
	})
	if err == mpi.ErrDeadlock {
		res.Deadlocked = true
		res.Witness = world.DeadlockWitness()
		return res, nil
	}
	return res, err
}

// nodeMain is Listing 1's main() for one MPI process.
func nodeMain(r *mpi.Rank, cfg *Config, problem *tsp) (rounds int, reported, best float64, err error) {
	myRank := r.UntracedRank()
	var masterTh *parlot.ThreadTracer
	if cfg.Tracer != nil {
		masterTh = cfg.Tracer.Thread(trace.TID(myRank, 0))
	}
	traced := func(th *parlot.ThreadTracer, name string, fn func()) {
		if th != nil {
			th.Enter(name)
			defer th.Exit(name)
		}
		fn()
	}

	if masterTh != nil {
		masterTh.Enter("main")
	}
	r.Init()
	r.Size()
	rank := r.Rank()

	// Obtain the total number of CPUs/GPUs (lines 7-8). No GPU code is
	// provided, matching the paper's setup.
	if _, err = r.Reduce(0, []float64{float64(cfg.Workers)}, mpi.SUM); err != nil {
		return 0, 0, 0, err
	}
	if _, err = r.Reduce(0, []float64{0}, mpi.SUM); err != nil {
		return 0, 0, 0, err
	}

	// champSize = CPU_Init() (line 10).
	champSize := 0
	traced(masterTh, "CPU_Init", func() { champSize = problem.n + 1 })

	if err = r.Barrier(); err != nil { // line 13
		return 0, 0, 0, err
	}

	// Shared node state for the parallel region: the evaluation turns, the
	// per-thread champion boxes, and the currently adopted global champion
	// tour that workers refine (ILCS is an *iterated* local search: the
	// broadcast champion seeds further work). The turns bound the node's
	// evaluations to what the round budget consumes, so worker traces stay
	// proportional to the search length (on the paper's cluster the
	// wall-clock termination plays this role).
	sched := newTurns(cfg.Seed, myRank, cfg.Workers)
	var adopted atomic.Pointer[[]int]
	champs := make([]champBox, cfg.Workers+1)

	region := omp.NewRegion(myRank, cfg.Tracer)
	var masterErr error
	var roundsDone int
	var reportedVal float64
	region.Parallel(cfg.Workers+1, func(t *omp.Thread) {
		tid := t.Num() // line 15: rank = omp_get_thread_num()
		if tid != 0 {
			workerLoop(t, tid, myRank, cfg, problem, sched, &adopted, &champs[tid])
			return
		}
		roundsDone, reportedVal, masterErr = masterLoop(r, t, rank, cfg, sched, &adopted, champs, champSize)
	})
	if masterErr != nil {
		return roundsDone, 0, 0, masterErr
	}

	best = math.Inf(1)
	for i := range champs {
		if v := champs[i].load(); v < best {
			best = v
		}
	}
	if rank == 0 { // line 38: CPU_Output
		traced(masterTh, "CPU_Output", func() {})
	}
	if err = r.Finalize(); err != nil {
		return roundsDone, 0, 0, err
	}
	if masterTh != nil {
		masterTh.Exit("main")
	}
	return roundsDone, reportedVal, best, nil
}

// workerLoop is Listing 1 lines 16-21: evaluate seeds until told to stop,
// recording improved champions under the (possibly omitted) critical
// section. Each evaluation waits for one of the node's turns.
func workerLoop(t *omp.Thread, tid, myRank int, cfg *Config, problem *tsp,
	sched *turns, adopted *atomic.Pointer[[]int], champ *champBox) {
	th := t.Tracer()
	rng := newWorkerRNG(cfg.Seed, myRank, tid)
	for iter := 0; sched.take(tid); iter++ {
		// line 17: calculate seed — unique per (rank, thread, iteration);
		// the evaluation either restarts from a fresh random tour or
		// refines (perturb + 2-opt) the currently adopted champion.
		var start []int
		if base := adopted.Load(); base != nil && iter%2 == 1 {
			start = doubleBridge(*base, rng)
		} else {
			start = rng.Perm(problem.n)
		}
		var local float64
		var tour []int
		if th != nil {
			th.Enter("CPU_Exec")
		}
		local, tour = problem.execFrom(start) // line 18
		if th != nil {
			th.Exit("CPU_Exec")
		}
		if local < champ.load() { // line 19
			protect := !cfg.Plan.Active(faults.OmitCritical, myRank, tid, iter)
			t.Critical("champ", protect, func() { // line 20 (#pragma omp critical)
				if th != nil {
					th.Enter("memcpy")
				}
				champ.store(&champEntry{val: local, tour: tour}) // line 20: memcpy
				if th != nil {
					th.Exit("memcpy")
				}
			})
		}
		sched.finish()
	}
}

// newWorkerRNG derives a per-thread RNG from the run seed.
func newWorkerRNG(seed int64, rank, tid int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(rank*1_000_000+tid*10_000)))
}

// minShare is the number of turns every worker gets before any worker gets
// more, so no worker's trace is empty however short the search.
const minShare = 2

// turns hands out one node's CPU_Exec evaluations one at a time, in an
// order drawn from (Seed, rank), and holds them back while the master runs
// a champion round. Which worker evaluates how often — the asynchrony the
// paper notes for Figure 7a — is thus a function of the configuration
// alone, and equal configurations give equal traces under any goroutine
// schedule. (On the paper's cluster the order comes from the hardware; a
// scheduler-driven order here made every trace, and the ranking tables
// built from them, change from run to run.)
type turns struct {
	mu      sync.Mutex
	cond    *sync.Cond
	order   *rand.Rand // drawn on the node's unused thread-0 worker stream
	first   []int      // the opening minShare turns per worker, shuffled
	owner   int        // worker holding the next turn
	done    int64      // evaluations completed on the node
	budget  int64      // evaluations allowed before the master's next round
	workers int
	stopped bool
}

func newTurns(seed int64, rank, workers int) *turns {
	s := &turns{order: newWorkerRNG(seed, rank, 0), workers: workers}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < minShare; i++ {
		for w := 1; w <= workers; w++ {
			s.first = append(s.first, w)
		}
	}
	s.order.Shuffle(len(s.first), func(i, j int) { s.first[i], s.first[j] = s.first[j], s.first[i] })
	s.owner = s.first[0]
	return s
}

// take blocks until worker tid holds the next turn within the budget; it
// reports false once the master stopped the search.
func (s *turns) take(tid int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.stopped && (s.owner != tid || s.done >= s.budget) {
		s.cond.Wait()
	}
	return !s.stopped
}

// finish ends the current turn and passes the next one on.
func (s *turns) finish() {
	s.mu.Lock()
	s.done++
	if n := int(s.done); n < len(s.first) {
		s.owner = s.first[n]
	} else {
		s.owner = 1 + s.order.Intn(s.workers)
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// runUntil lets the workers complete evaluations up to total on the node
// and returns once they have; until the next call no evaluation runs.
func (s *turns) runUntil(total int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = total
	s.cond.Broadcast()
	for s.done < total {
		s.cond.Wait()
	}
}

// stop ends the search: every waiting worker returns from take.
func (s *turns) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// masterLoop is Listing 1 lines 22-37: reduce the global champion, identify
// its owner, broadcast the tour, and decide termination.
func masterLoop(r *mpi.Rank, t *omp.Thread, rank int, cfg *Config,
	sched *turns, adopted *atomic.Pointer[[]int],
	champs []champBox, champSize int) (rounds int, reported float64, err error) {
	defer sched.stop() // line 36: signal worker threads to terminate
	th := t.Tracer()

	prevVal := math.Inf(1)
	prevPid := -1
	stable := 0
	for rounds < cfg.MaxRounds {
		rounds++
		// Pace the round on real search progress: round r starts once the
		// node's workers completed r×EvalsPerRound evaluations in total
		// (the master's "scan the results of the workers" phase of §IV-A).
		// No evaluation runs during the round itself, so the scan, and the
		// champion the next evaluations refine, are the same in every run.
		sched.runUntil(int64(rounds) * int64(cfg.EvalsPerRound))
		// Local champion = best across this node's workers, with its tour.
		local := math.Inf(1)
		var localTour []int
		for i := range champs {
			if e := champs[i].entry(); e != nil && e.val < local {
				local = e.val
				localTour = e.tour
			}
		}

		// line 23: broadcast the global champion (value).
		op := mpi.MIN
		if cfg.Plan.Active(faults.WrongReduceOp, rank, 0, rounds-1) {
			op = mpi.MAX // §IV-D: the silent wrong-operation bug
		}
		payload := []float64{local}
		if cfg.Plan.Active(faults.WrongCollectiveSize, rank, 0, rounds-1) {
			payload = make([]float64, 1+3) // §IV-C: wrong size -> deadlock
			payload[0] = local
		}
		global, err := r.Allreduce(payload, op)
		if err != nil {
			return rounds, prevVal, err
		}
		// line 24: broadcast the global champion P_id (owner rank; MINLOC
		// emulated by reducing the owner candidates).
		owner := []float64{math.Inf(1)}
		if local == global[0] {
			owner[0] = float64(rank)
		}
		ownerRes, err := r.Allreduce(owner, mpi.MIN)
		if err != nil {
			return rounds, prevVal, err
		}
		champPid := int(ownerRes[0])
		if math.IsInf(ownerRes[0], 1) {
			// Wrong-op runs can yield a global value no node claims
			// (MAX of minima vs local minima): fall back to rank 0.
			champPid = 0
		}

		// lines 25-30: the champion's owner copies its champion (value and
		// tour) into the broadcast buffer under the critical section.
		buf := make([]float64, champSize)
		if rank == champPid {
			t.Critical("champ", true, func() {
				if th != nil {
					th.Enter("memcpy")
				}
				buf[0] = local
				for i, c := range localTour {
					if 1+i < len(buf) {
						buf[1+i] = float64(c)
					}
				}
				if th != nil {
					th.Exit("memcpy")
				}
			})
		}
		got, err := r.Bcast(champPid, buf) // line 31
		if err != nil {
			return rounds, prevVal, err
		}
		// Adopt the broadcast champion as the node's new search base (the
		// "iterative" in Iterative Local Champion Search). Under the
		// wrong-op fault the adopted tour can be a hijacked, inferior one,
		// which visibly changes the workers' subsequent behaviour.
		if len(got) > 1 {
			tour := make([]int, 0, len(got)-1)
			for _, c := range got[1:] {
				tour = append(tour, int(c))
			}
			if validTour(tour, cfg.Cities) {
				adopted.Store(&tour)
			}
		}

		// lines 33-34: terminate when the champion stops changing. The
		// decision uses the *broadcast* champion (identical at every rank,
		// so the masters stay in lockstep even when the injected wrong-op
		// fault makes their Allreduce views diverge). Under that fault the
		// champion's apparent owner oscillates between the corrupted
		// rank's view and the true best node, so the broadcast value keeps
		// changing and the loop runs to its cap — the paper's "many more
		// MPI_Bcast calls" effect (§IV-D) — yet still terminates.
		if got[0] == prevVal && champPid == prevPid {
			stable++
		} else {
			stable = 0
		}
		prevVal, prevPid = got[0], champPid
		if stable >= cfg.StableRounds {
			break
		}
	}
	return rounds, prevVal, nil
}

// validTour checks a decoded broadcast tour is a permutation of 0..n-1.
func validTour(tour []int, n int) bool {
	if len(tour) != n {
		return false
	}
	seen := make([]bool, n)
	for _, c := range tour {
		if c < 0 || c >= n || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}
