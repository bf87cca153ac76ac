package commpat

import (
	"math"
	"testing"
	"testing/quick"

	"difftrace/internal/apps/lulesh"
	"difftrace/internal/apps/oddeven"
	"difftrace/internal/faults"
	"difftrace/internal/otf"
)

// Total returns the total message count.
func (m *Matrix) Total() float64 {
	t := 0.0
	for i := range m.M {
		for j := range m.M[i] {
			t += m.M[i][j]
		}
	}
	return t
}

func TestCanonicalShapes(t *testing.T) {
	nn := Canonical(NearestNeighbor1D, 4)
	if nn.M[0][1] != 1 || nn.M[1][0] != 1 || nn.M[0][3] != 0 || nn.M[0][0] != 0 {
		t.Errorf("nearest neighbor:\n%v", nn.M)
	}
	ring := Canonical(Ring, 4)
	if ring.M[3][0] != 1 || ring.M[0][3] != 0 {
		t.Errorf("ring:\n%v", ring.M)
	}
	ata := Canonical(AllToAll, 3)
	if ata.Total() != 6 {
		t.Errorf("all-to-all total = %f", ata.Total())
	}
	mw := Canonical(MasterWorker, 4)
	if mw.M[0][2] != 1 || mw.M[2][0] != 1 || mw.M[1][2] != 0 {
		t.Errorf("master-worker:\n%v", mw.M)
	}
	bf := Canonical(Butterfly, 4)
	if bf.M[0][1] != 1 || bf.M[0][2] != 1 || bf.M[0][3] != 0 {
		t.Errorf("butterfly:\n%v", bf.M)
	}
}

func TestCosine(t *testing.T) {
	a := Canonical(Ring, 4)
	if sim, _ := Cosine(a, a); sim != 1 {
		t.Errorf("self similarity = %f", sim)
	}
	zero := NewMatrix(4)
	if sim, _ := Cosine(zero, zero); sim != 1 {
		t.Errorf("zero-zero similarity = %f", sim)
	}
	if sim, _ := Cosine(zero, a); sim != 0 {
		t.Errorf("zero-ring similarity = %f", sim)
	}
	if _, err := Cosine(a, NewMatrix(5)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestClassifyCanonicalIsItself(t *testing.T) {
	// Each canonical pattern must classify as itself at n=8 (a power of two
	// so butterfly is well-formed).
	for _, p := range AllPatterns() {
		got := Classify(Canonical(p, 8))
		if got[0].Pattern != p {
			t.Errorf("%v classified as %v (sim %.3f)", p, got[0].Pattern, got[0].Similarity)
		}
		if got[0].Similarity < 0.999 {
			t.Errorf("%v self-similarity = %f", p, got[0].Similarity)
		}
	}
}

func TestDiffAndHotPairs(t *testing.T) {
	a := Canonical(Ring, 4)
	b := Canonical(Ring, 4)
	b.M[2][3] = 0 // rank 2 stopped sending to 3
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	hot := d.HotPairs(3)
	if len(hot) != 1 || hot[0].Src != 2 || hot[0].Dst != 3 {
		t.Errorf("hot pairs = %v", hot)
	}
	if hot[0].String() != "2->3 (x1)" {
		t.Errorf("pair string = %s", hot[0].String())
	}
	if _, err := Diff(a, NewMatrix(7)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestFromLogOddEven(t *testing.T) {
	// The odd/even sort's communication is textbook 1-D nearest neighbor.
	clock := otf.NewLog(8)
	if _, err := oddeven.Run(oddeven.Config{Procs: 8, Seed: 5, Clock: clock}); err != nil {
		t.Fatal(err)
	}
	m := FromLog(clock)
	if m.Total() == 0 {
		t.Fatal("no sends mined from the log")
	}
	got := Classify(m)
	if got[0].Pattern != NearestNeighbor1D {
		t.Errorf("odd/even classified as %v:\n%v", got[0].Pattern, m.M)
	}
	// Only adjacent pairs communicate.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if m.M[i][j] > 0 && int(math.Abs(float64(i-j))) != 1 {
				t.Errorf("non-neighbor traffic %d->%d", i, j)
			}
		}
	}
}

func TestCommDiffLocalizesDeadlock(t *testing.T) {
	// Normal vs dlBug run: the diff's hot pairs cluster around rank 5.
	run := func(plan *faults.Plan) *Matrix {
		clock := otf.NewLog(16)
		if _, err := oddeven.Run(oddeven.Config{Procs: 16, Seed: 5, Plan: plan, Clock: clock}); err != nil {
			t.Fatal(err)
		}
		return FromLog(clock)
	}
	normal := run(nil)
	plan, _ := faults.Named("dlBug")
	faulty := run(plan)
	d, err := Diff(normal, faulty)
	if err != nil {
		t.Fatal(err)
	}
	hot := d.HotPairs(4)
	if len(hot) == 0 {
		t.Fatal("no communication change detected")
	}
	// The most-changed edge touches the stalled region around rank 5.
	p := hot[0]
	if !(near(p.Src, 5, 2) || near(p.Dst, 5, 2)) {
		t.Errorf("hottest changed edge %v far from the fault", p)
	}
}

func near(x, target, tol int) bool {
	d := x - target
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestRender(t *testing.T) {
	if Pattern(99).String() == "" {
		t.Error("unknown pattern renders empty")
	}
}

// Property: cosine similarity is symmetric, in [0,1], and 1 on self.
func TestQuickCosineProperties(t *testing.T) {
	f := func(cells []uint8) bool {
		n := 4
		a, b := NewMatrix(n), NewMatrix(n)
		for i, c := range cells {
			if i >= n*n*2 {
				break
			}
			m, idx := a, i
			if i >= n*n {
				m, idx = b, i-n*n
			}
			m.M[idx/n][idx%n] = float64(c % 7)
		}
		ab, err1 := Cosine(a, b)
		ba, err2 := Cosine(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(ab-ba) > 1e-12 || ab < -1e-12 || ab > 1+1e-12 {
			return false
		}
		self, err := Cosine(a, a)
		return err == nil && math.Abs(self-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromLogCountsNonblockingSends(t *testing.T) {
	// The LULESH proxy's halo exchange is all MPI_Isend; its pattern is
	// still 1-D nearest neighbor.
	clock := otf.NewLog(4)
	if _, err := lulesh.Run(lulesh.Config{
		Procs: 4, Threads: 2, EdgeElems: 4, Regions: 3, Cycles: 2, Clock: clock,
	}); err != nil {
		t.Fatal(err)
	}
	m := FromLog(clock)
	if m.Total() == 0 {
		t.Fatal("no nonblocking sends mined")
	}
	if got := Classify(m)[0].Pattern; got != NearestNeighbor1D {
		t.Errorf("lulesh pattern = %v:\n%v", got, m.M)
	}
}
