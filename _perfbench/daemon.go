package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"difftrace/internal/attr"
	"difftrace/internal/cluster"
	"difftrace/internal/core"
	"difftrace/internal/faults"
	"difftrace/internal/filter"
	"difftrace/internal/resilience"
	"difftrace/internal/service"
	"difftrace/internal/store"
	"difftrace/internal/trace"
)

// daemon-mix: difftraced jobs from admission to the stored artifact. A
// closed loop of HTTP clients (one per CPU, at most two) POSTs /v1/diff,
// polls /v1/jobs/{id} until the job is done, and reads the artifacts.
// About one submission in four repeats a finished job, which the service
// answers from its store.

const (
	daemonClients = 2
	// daemonVariants is how many seeded fault placements each app config
	// gets (LULESH at 8 ranks has no more); with the crossings below it
	// sizes the job list so a run does not run out of fresh jobs.
	daemonVariants = 8
	// repeatShare is the share of submissions that repeat a finished job.
	repeatShare = 0.25
	pollEvery   = 2 * time.Millisecond
	// digestJobs is how many leading jobs of the seeded list the
	// default-seed digest covers.
	digestJobs = 8
)

// daemonPair is one normal/faulty text trace pair and the specs its app
// is analyzed with.
type daemonPair struct {
	app            string // "oddeven" | "lulesh"
	kind           string // app, size and fault, e.g. "oddeven64-dl"
	normal, faulty string // file paths
	specs          []string
}

// daemonJob is one fresh submission of the seeded job list.
type daemonJob struct {
	index int // position in the seeded list
	pair  int
	req   service.DiffRequest
}

type daemonInputs struct {
	pairs  []daemonPair
	jobs   []daemonJob
	warmup service.DiffRequest
	srv    *server
	client *client
}

var (
	oddevenSpecs = []string{"11.mpiall.0K10", "11.mpisr.0K10"}
	luleshSpecs  = []string{"11.1K10", "01.1K10"}
)

// genDaemonPairs writes the daemon-mix trace pairs into dir: per variant,
// oddeven at 32 and 64 ranks with swapBug, oddeven at 64 ranks with dlBug,
// and LULESH at 8x4 with skipLeapFrog, each fault at a seeded rank (and
// iteration). It refuses to produce two equal faulty traces, whose jobs
// would share cache keys and turn fresh jobs into cache hits.
func genDaemonPairs(seed int64, dir string) ([]daemonPair, error) {
	r := rngFor(seed, "daemon-mix/faults")
	oeSeed := rngFor(seed, "daemon-mix/oddeven").Int63()
	write := func(name string, set *trace.TraceSet) (string, error) {
		raw, err := textBytes(set)
		if err != nil {
			return "", err
		}
		path := filepath.Join(dir, name)
		return path, os.WriteFile(path, raw, 0o644)
	}
	normals := map[string]string{}
	for _, n := range []struct {
		name  string
		procs int
		app   string
	}{{"oddeven32", 32, "oddeven"}, {"oddeven64", 64, "oddeven"}, {"lulesh8x4", 8, "lulesh"}} {
		var set *trace.TraceSet
		var err error
		if n.app == "oddeven" {
			set, err = genOddeven(n.procs, oeSeed, nil)
		} else {
			set, err = genLulesh(n.procs, 4, 6, nil)
		}
		if err != nil {
			return nil, err
		}
		if normals[n.name], err = write(n.name+"-normal.trace", set); err != nil {
			return nil, err
		}
	}
	type faulted struct {
		name, normal string
		procs        int
		kind         faults.Kind
	}
	configs := []faulted{
		{"oddeven32-swap", "oddeven32", 32, faults.SwapSendRecv},
		{"oddeven64-swap", "oddeven64", 64, faults.SwapSendRecv},
		{"oddeven64-dl", "oddeven64", 64, faults.DeadlockStop},
		{"lulesh8x4-skip", "lulesh8x4", 8, faults.SkipFunction},
	}
	var pairs []daemonPair
	seen := map[[32]byte]string{}
	for _, c := range configs {
		// oddeven faults avoid the two edge ranks. swapBug goes to odd
		// ranks, where the swapped order is Send||Send and completes under
		// the eager limit, the paper's potential deadlock; on an even rank
		// it is Recv||Recv, an actual deadlock whose trace can equal a
		// dlBug pair's. LULESH uses every rank.
		var ranks []int
		switch c.kind {
		case faults.SkipFunction:
			ranks = r.Perm(c.procs)
		case faults.SwapSendRecv:
			for _, k := range r.Perm(c.procs/2 - 1) {
				ranks = append(ranks, 2*k+1)
			}
		default:
			for _, k := range r.Perm(c.procs - 2) {
				ranks = append(ranks, k+1)
			}
		}
		for v := 0; v < daemonVariants; v++ {
			rank := ranks[v]
			var set *trace.TraceSet
			var err error
			p := daemonPair{kind: c.name, normal: normals[c.normal]}
			if c.kind == faults.SkipFunction {
				p.app, p.specs = "lulesh", luleshSpecs
				set, err = genLulesh(c.procs, 4, 6, skipLeapFrog(rank))
			} else {
				p.app, p.specs = "oddeven", oddevenSpecs
				after := c.procs/4 + r.Intn(c.procs/4)
				set, err = genOddeven(c.procs, oeSeed, faults.NewPlan(faults.Fault{
					Kind: c.kind, Process: rank, Thread: -1, AfterIteration: after,
				}))
			}
			if err != nil {
				return nil, err
			}
			raw, err := textBytes(set)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s-%d-faulty.trace", c.name, v)
			sum := sha256.Sum256(raw)
			if other, dup := seen[sum]; dup {
				return nil, fmt.Errorf("daemon-mix: %s and %s are the same trace, so their jobs would share cache keys", name, other)
			}
			seen[sum] = name
			p.faulty = filepath.Join(dir, name)
			if err := os.WriteFile(p.faulty, raw, 0o644); err != nil {
				return nil, err
			}
			pairs = append(pairs, p)
		}
	}
	return pairs, nil
}

// daemonLinkages are crossed into the job list to give it enough distinct
// jobs; ward is the paper's method.
var daemonLinkages = []string{"ward", "average"}

// daemonJobs crosses every pair with its app's specs, the six attribute
// configs, find_divergence off and on, and the linkages, in seeded order.
// The order is stratified: jobs are dealt in blocks holding one job of
// every (pair kind, spec, find_divergence) stratum, so any prefix of the
// list, however far a run gets, has nearly the same mix of job costs.
func daemonJobs(seed int64, pairs []daemonPair) []daemonJob {
	type stratum struct {
		kind, spec string
		fd         bool
	}
	var keys []stratum
	strata := map[stratum][]daemonJob{}
	for pi, p := range pairs {
		for _, spec := range p.specs {
			for _, fd := range []bool{false, true} {
				k := stratum{p.kind, spec, fd}
				if _, ok := strata[k]; !ok {
					keys = append(keys, k)
				}
				for _, ac := range attr.AllConfigs() {
					for _, lk := range daemonLinkages {
						strata[k] = append(strata[k], daemonJob{pair: pi, req: service.DiffRequest{
							Normal: p.normal, Faulty: p.faulty, Filter: spec,
							Attr: ac.String(), Linkage: lk, FindDivergence: fd,
						}})
					}
				}
			}
		}
	}
	r := rngFor(seed, "daemon-mix/order")
	for _, k := range keys {
		js := strata[k]
		r.Shuffle(len(js), func(i, j int) { js[i], js[j] = js[j], js[i] })
	}
	var jobs []daemonJob
	for b := 0; b < len(strata[keys[0]]); b++ {
		block := make([]daemonJob, 0, len(keys))
		for _, k := range keys {
			block = append(block, strata[k][b])
		}
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		jobs = append(jobs, block...)
	}
	for i := range jobs {
		jobs[i].index = i
	}
	return jobs
}

func setupDaemon(b *bench, dir string) (*daemonInputs, func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	pairs, err := genDaemonPairs(b.seed, dir)
	if err != nil {
		return nil, nil, err
	}
	// The warm-up pair is not in the job list: it only primes the server,
	// the client's connections and the pipeline's code paths.
	wn, err := genOddeven(8, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	wf, err := genOddeven(8, 1, faults.NewPlan(faults.Fault{Kind: faults.SwapSendRecv, Process: 3, Thread: -1, AfterIteration: 2}))
	if err != nil {
		return nil, nil, err
	}
	in := &daemonInputs{pairs: pairs, jobs: daemonJobs(b.seed, pairs)}
	in.warmup = service.DiffRequest{Normal: filepath.Join(dir, "warmup-normal.trace"), Faulty: filepath.Join(dir, "warmup-faulty.trace")}
	for _, w := range []struct {
		path string
		set  *trace.TraceSet
	}{{in.warmup.Normal, wn}, {in.warmup.Faulty, wf}} {
		raw, err := textBytes(w.set)
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(w.path, raw, 0o644); err != nil {
			return nil, nil, err
		}
	}
	if in.srv, err = startServer(filepath.Join(dir, "store"), 0); err != nil {
		return nil, nil, err
	}
	in.client = newClient(in.srv.base)
	teardown := func() {
		in.client.close()
		in.srv.stop()
	}
	for i := 0; i < 2; i++ { // a miss, then a hit
		if _, _, err := in.client.run(in.warmup); err != nil {
			teardown()
			return nil, nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return in, teardown, nil
}

// server is the service behind its HTTP handler on a loopback listener.
type server struct {
	svc  *service.Service
	http *http.Server
	base string
	done chan struct{}
}

func startServer(storeDir string, workers int) (*server, error) {
	svc, _, err := service.New(context.Background(), service.Config{StoreDir: storeDir, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_, _ = svc.Stop(context.Background()) // the listen error is the one to report
		return nil, err
	}
	s := &server{svc: svc, http: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

// stop shuts the listener down, waits for the serve loop, then drains the
// service. Failures are reported on standard error: the run's numbers are
// already taken.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: http shutdown:", err)
	}
	<-s.done
	if _, err := s.svc.Stop(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service stop:", err)
	}
}

// jobReply is the wire shape of a job view with its artifacts.
type jobReply struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Attempts int             `json:"attempts"`
	Cached   bool            `json:"cached"`
	Error    string          `json:"error"`
	Report   string          `json:"report"`
	Manifest json.RawMessage `json:"manifest"`
}

// errRefused marks a 429 or 503 answer to a submission.
var errRefused = errors.New("submission refused")

type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients},
		Timeout:   2 * time.Minute,
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func (c *client) do(req *http.Request) (jobReply, int, error) {
	var jr jobReply
	resp, err := c.http.Do(req)
	if err != nil {
		return jr, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return jr, resp.StatusCode, err
	}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return jr, resp.StatusCode, errRefused
	default:
		return jr, resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return jr, resp.StatusCode, json.Unmarshal(body, &jr)
}

// submit POSTs one request.
func (c *client) submit(r service.DiffRequest) (jobReply, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return jobReply{}, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/diff", bytes.NewReader(body))
	if err != nil {
		return jobReply{}, err
	}
	jr, _, err := c.do(req)
	return jr, err
}

// wait polls the job until it settles and returns the final view with
// the number of polls made.
func (c *client) wait(id string) (jobReply, int, error) {
	polls := 0
	for {
		req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+id, nil)
		if err != nil {
			return jobReply{}, polls, err
		}
		jr, _, err := c.do(req)
		polls++
		if err != nil || jr.State == string(service.StateDone) || jr.State == string(service.StateFailed) {
			return jr, polls, err
		}
		time.Sleep(pollEvery)
	}
}

// run submits a request and waits for it to settle.
func (c *client) run(r service.DiffRequest) (jobReply, int, error) {
	jr, err := c.submit(r)
	if err != nil {
		return jr, 0, err
	}
	polls := 0
	if jr.State != string(service.StateDone) {
		jr, polls, err = c.wait(jr.ID)
	}
	if err == nil && jr.State != string(service.StateDone) {
		err = fmt.Errorf("job %s %s: %s", jr.ID, jr.State, jr.Error)
	}
	return jr, polls, err
}

// planner hands out submissions in seeded order: the next fresh job, or
// with probability repeatShare a job that has already finished.
type planner struct {
	mu       sync.Mutex
	r        *rand.Rand
	jobs     []daemonJob
	next     int
	finished []int              // job indices, in finishing order
	stored   map[int][32]byte   // index -> digest of the artifacts its miss returned
	leading  [digestJobs]string // reports of the first jobs of the list
}

func newPlanner(seed int64, jobs []daemonJob) *planner {
	return &planner{r: rngFor(seed, "daemon-mix/repeats"), jobs: jobs, stored: map[int][32]byte{}}
}

// take returns the next submission and whether it repeats a finished job;
// ok is false once no fresh job is left, which ends the timed phase early
// rather than let it drift into a hits-only mix.
func (p *planner) take() (job daemonJob, repeat, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next == len(p.jobs) {
		return daemonJob{}, false, false
	}
	if len(p.finished) > 0 && p.r.Float64() < repeatShare {
		return p.jobs[p.finished[p.r.Intn(len(p.finished))]], true, true
	}
	p.next++
	return p.jobs[p.next-1], false, true
}

// artifactSum digests a job's report and manifest as the client saw them.
// The planner keeps digests, not the artifacts, so the client's own memory
// stays flat over a run.
func artifactSum(jr jobReply) [32]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n%s", len(jr.Report), jr.Report)
	h.Write(jr.Manifest)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// finish records a miss's artifacts; later repeats must return them.
func (p *planner) finish(j daemonJob, jr jobReply) {
	sum := artifactSum(jr)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stored[j.index] = sum
	p.finished = append(p.finished, j.index)
	if j.index < digestJobs {
		p.leading[j.index] = jr.Report
	}
}

// checkHit compares a repeat's answer with the artifacts its miss stored.
func (p *planner) checkHit(j daemonJob, jr jobReply) error {
	if !jr.Cached {
		return fmt.Errorf("job %d: repeat was not served from the cache", j.index)
	}
	p.mu.Lock()
	miss := p.stored[j.index]
	p.mu.Unlock()
	if artifactSum(jr) != miss {
		return fmt.Errorf("job %d: cached artifacts differ from the ones its miss stored", j.index)
	}
	return nil
}

// leadingDigest hashes the stored reports of the first digestJobs jobs of
// the seeded list.
func (p *planner) leadingDigest() (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	h := sha256.New()
	for i := 0; i < digestJobs && i < len(p.jobs); i++ {
		if _, ok := p.stored[i]; !ok {
			return "", false
		}
		fmt.Fprintf(h, "job %d %d\n%s", i, len(p.leading[i]), p.leading[i])
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

func runDaemon(b *bench) error {
	in, err := repeatSetup(b, func(dir string) (*daemonInputs, func(), error) { return setupDaemon(b, dir) })
	if err != nil {
		return err
	}
	defer func() {
		in.client.close()
		in.srv.stop()
	}()
	pl := newPlanner(b.seed, in.jobs)
	clients := daemonClients
	if n := runtime.NumCPU(); n < clients {
		clients = n
	}

	var mu sync.Mutex
	var fresh, hits []float64
	byKind := map[string][]float64{}
	base := baseline()
	hs := startHeapSampler(time.Millisecond)
	a0 := readRT().allocs
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < b.seconds {
				job, repeat, ok := pl.take()
				if !ok {
					return
				}
				t0 := time.Now()
				jr, _, err := in.client.run(job.req)
				d := ms(time.Since(t0))
				mu.Lock()
				b.attempted++
				switch {
				case err != nil:
					b.fail("job %d: %v", job.index, err)
				case repeat:
					hits = append(hits, d)
					if err := pl.checkHit(job, jr); err != nil {
						b.fail("%v", err)
					}
				case jr.Cached:
					b.fail("job %d: fresh job answered from the cache", job.index)
				default:
					fresh = append(fresh, d)
					kind := in.pairs[job.pair].kind
					byKind[kind] = append(byKind[kind], d)
				}
				mu.Unlock()
				if err == nil && !repeat {
					pl.finish(job, jr)
				}
			}
		}()
	}
	// The clients overlap, so the heap has no per-op peak: sample the
	// peak of each second of the phase instead.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var windows []float64
	tick := time.NewTicker(time.Second)
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-tick.C:
			windows = append(windows, mib(float64(hs.reset())-float64(base)))
		}
	}
	tick.Stop()
	elapsed := time.Since(start)
	allocs := readRT().allocs - a0
	hs.close()

	if len(fresh) == 0 || len(hits) == 0 || len(windows) == 0 {
		return fmt.Errorf("daemon-mix: %d fresh jobs and %d cache hits completed; need both", len(fresh), len(hits))
	}
	b.addTiming("op_p50_ms", fresh, 0.5)
	b.note("op_p90_ms", quantile(fresh, 0.9), "ms")
	b.timings["op_p90_ms"] = timing{Samples: len(fresh), Percentile: 90}
	b.note("hit_p50_ms", quantile(hits, 0.5), "ms")
	b.timings["hit_p50_ms"] = timing{Samples: len(hits), Percentile: 50}
	b.metrics["jobs_per_s"] = float64(b.attempted) / elapsed.Seconds()
	b.metrics["peak_heap_mib"] = median(windows)
	b.timings["peak_heap_mib"] = timing{Samples: len(windows), Percentile: 50}
	b.note("peak_heap_max_mib", quantile(windows, 1), "MiB")
	// An op is a fresh job; the cache hits' small allocations ride along.
	b.metrics["alloc_mib_per_op"] = mib(float64(allocs) / float64(len(fresh)))
	for kind, lat := range byKind {
		b.note("op_p50_ms."+kind, median(lat), "ms")
		b.timings["op_p50_ms."+kind] = timing{Samples: len(lat), Percentile: 50}
	}
	b.note("fresh_jobs", float64(len(fresh)), "count")
	b.note("cache_hits", float64(len(hits)), "count")
	if d, ok := pl.leadingDigest(); ok {
		b.digest = d
		b.checkRecorded(d)
	} else {
		b.fail("the first %d jobs of the list did not all finish", digestJobs)
	}
	return b.daemonProps(in)
}

// daemonProps records the input properties of the first variant's pairs,
// summarized under each pair's first spec.
func (b *bench) daemonProps(in *daemonInputs) error {
	var np nlrProps
	var events, size, objects, funcs int
	for pi, p := range in.pairs {
		if pi%daemonVariants != 0 {
			continue
		}
		reg := trace.NewRegistry()
		var sets [2]*trace.TraceSet
		for i, path := range []string{p.normal, p.faulty} {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			size += len(raw)
			if sets[i], err = trace.ReadSetText(bytes.NewReader(raw), reg); err != nil {
				return err
			}
			events += sets[i].TotalEvents()
		}
		objects += len(sets[0].Traces) + len(sets[0].Processes())
		if reg.Len() > funcs {
			funcs = reg.Len()
		}
		flt, err := filter.ParseSpec(p.specs[0])
		if err != nil {
			return err
		}
		rep, err := core.DiffRun(sets[0], sets[1], core.Config{Filter: flt, Attr: attr.Config{Kind: attr.Single, Freq: attr.Actual}, Linkage: cluster.Ward})
		if err != nil {
			return err
		}
		np.add(rep)
	}
	b.props["events"] = float64(events)
	b.props["objects"] = float64(objects)
	b.props["distinct_functions"] = float64(funcs)
	b.props["trace.events_per_byte"] = ratio(float64(events), float64(size))
	b.props["jobs_in_list"] = float64(len(in.jobs))
	np.record(b)
	return nil
}

func tracedDaemon(b *bench) error {
	dir := filepath.Join(b.dir, "setup")
	in, teardown, err := setupDaemon(b, dir)
	if err != nil {
		return err
	}
	defer teardown()
	pl := newPlanner(b.seed, in.jobs)
	ref := in.jobs[0]

	// The untraced base ops: the first job of the list on a fresh server
	// with the default workers and on one with Workers: 1.
	nsrv := 0
	u, err := timeBase(func(workers int) (time.Duration, error) {
		nsrv++
		srv, err := startServer(filepath.Join(b.dir, fmt.Sprintf("base%d", nsrv)), workers)
		if err != nil {
			return 0, err
		}
		defer srv.stop()
		c := newClient(srv.base)
		defer c.close()
		t0 := time.Now()
		_, _, err = c.run(ref.req)
		return time.Since(t0), err
	})
	if err != nil {
		return err
	}
	if err := b.daemonProps(in); err != nil {
		return err
	}

	st, _, err := store.Open(filepath.Join(b.dir, "replay-store"))
	if err != nil {
		return err
	}
	ctx := context.Background()
	t := newTracer()
	hits := 0
	start := time.Now()
	for len(t.ops) < 1 || time.Since(start) < b.seconds {
		job, repeat, ok := pl.take()
		if !ok {
			break
		}
		label := in.pairs[job.pair].app
		if repeat {
			label = "hit"
		}
		t.beginOp("http", label)
		t.begin("service.admit")
		jr, err := in.client.submit(job.req)
		t.end()
		polls := 0
		if err == nil && jr.State != string(service.StateDone) {
			t.begin("service.poll")
			jr, polls, err = in.client.wait(jr.ID)
			t.end()
		}
		t.end()
		t.count("service.poll_calls", float64(polls))
		b.attempted++
		if errors.Is(err, errRefused) {
			t.count("service.refused", 1)
		}
		if err == nil && jr.State != string(service.StateDone) {
			err = fmt.Errorf("job %s %s: %s", jr.ID, jr.State, jr.Error)
		}
		if err != nil {
			b.fail("job %d: %v", job.index, err)
			continue
		}
		t.count("service.retries", float64(max(jr.Attempts-1, 0)))

		t.begin("op") // the replay: a second root of the same op
		var report []byte
		if repeat {
			hits++
			report, err = replayHit(t, st, jr.ID)
		} else {
			report, err = replayJob(ctx, t, st, job, jr)
		}
		t.endOp()
		if err != nil {
			return err
		}
		switch {
		case !bytes.Equal(report, []byte(jr.Report)):
			b.fail("job %d: replayed report differs from the service's artifact", job.index)
		case repeat:
			if err := pl.checkHit(job, jr); err != nil {
				b.fail("%v", err)
			}
		}
		if !repeat {
			pl.finish(job, jr)
		}
	}
	if d, ok := pl.leadingDigest(); ok {
		b.digest = d
		b.checkRecorded(d)
	}
	all := t.stats("op", func(string) bool { return true })
	httpSt := t.stats("http", func(string) bool { return true })
	lulesh := t.stats("op", func(l string) bool { return l == "lulesh" })
	b.metrics["service.admit_ms"] = ms(httpSt.self["service.admit"]) / float64(httpSt.ops)
	b.note("service.wait_ms", ms(httpSt.self["service.poll"])/float64(httpSt.ops), "ms")
	b.metrics["store.hit_ratio"] = ratio(float64(hits), float64(len(t.ops)))
	b.metrics["bench.diffnlr_share"] = lulesh.layerShare("diffnlr")
	b.note("lulesh_jobs_traced", float64(lulesh.ops), "count")
	var refWall time.Duration
	if len(all.walls) > 0 {
		refWall = time.Duration(all.walls[0] * float64(time.Millisecond))
	}
	return b.finishTraced(t, all, u, refWall)
}

// replayJob re-drives one fresh job on the benchmark goroutine: ingest,
// the pipeline, the report's parts, the divergence pass, and the store's
// write and verified read. The manifest is the service's own (it carries
// the service's telemetry, which the replay does not reproduce).
func replayJob(ctx context.Context, t *tracer, st *store.Store, job daemonJob, jr jobReply) ([]byte, error) {
	reg := trace.NewRegistry()
	opts := trace.ReadOptions{Mode: trace.Lenient}
	var sets [2]*trace.TraceSet
	var reps [2]*resilience.IngestReport
	t.begin("trace.read")
	for i, path := range []string{job.req.Normal, job.req.Faulty} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.end()
			return nil, err
		}
		t.count("trace.read_bytes", float64(len(raw)))
		sets[i], reps[i], err = trace.ReadSetTextContext(ctx, bufio.NewReader(bytes.NewReader(raw)), reg, opts)
		if err != nil {
			t.end()
			return nil, err
		}
	}
	t.end()
	reps[0].Source, reps[1].Source = "normal", "faulty"

	t.begin("filter")
	flt, err := filter.ParseSpec(job.req.Filter)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("attr")
	ac, err := attr.ParseConfig(job.req.Attr)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("cluster")
	lk, err := cluster.ParseMethod(job.req.Linkage)
	t.end()
	if err != nil {
		return nil, err
	}
	rep, err := replayDiffRun(t, pair{normal: sets[0], faulty: sets[1]}, core.Config{
		Filter: flt, Attr: ac, Linkage: lk, Resilient: true, Workers: 1,
	})
	if err != nil {
		return nil, err
	}

	var report bytes.Buffer
	for _, r := range reps {
		if !r.Clean() {
			report.WriteString("ingest " + r.RenderTable())
		}
	}
	if err := replayReport(t, &report, rep, 6); err != nil {
		return nil, err
	}
	if job.req.FindDivergence {
		if err := replayDivergence(ctx, t, &report, rep); err != nil {
			return nil, err
		}
	}
	t.count("diffnlr.report_bytes", float64(report.Len()))

	t.begin("store.put")
	err = st.Put(jr.ID, service.KindReport, report.Bytes())
	if err == nil {
		err = st.Put(jr.ID, service.KindManifest, jr.Manifest)
	}
	t.end()
	t.count("store.put_bytes", float64(report.Len()+len(jr.Manifest)))
	if err != nil {
		return nil, err
	}
	return replayHit(t, st, jr.ID)
}

// replayHit is the store's verified read of a job's two artifacts.
func replayHit(t *tracer, st *store.Store, id string) ([]byte, error) {
	t.begin("store.get")
	defer t.end()
	report, ok, err := st.Get(id, service.KindReport, nil)
	if err == nil && ok {
		_, ok, err = st.Get(id, service.KindManifest, nil)
	}
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("store: artifacts of %s missing", id)
	}
	return report, nil
}
