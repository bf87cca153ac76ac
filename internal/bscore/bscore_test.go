package bscore

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"difftrace/internal/cluster"
)

// FowlkesMallows computes B_k for two flat clusterings of the same n
// observations from their contingency table. Both labelings must have the
// same length; the number of clusters may differ. It and the cut-and-count
// loops below are the oracle the merge walk is held to.
func FowlkesMallows(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("bscore: labelings differ in length: %d vs %d", len(a), len(b))
	}
	n := len(a)
	if n == 0 {
		return 0, fmt.Errorf("bscore: empty labelings")
	}
	// Contingency table m[i][j] = |A_i ∩ B_j|.
	m := map[[2]int]float64{}
	rows := map[int]float64{}
	cols := map[int]float64{}
	for i := 0; i < n; i++ {
		m[[2]int{a[i], b[i]}]++
		rows[a[i]]++
		cols[b[i]]++
	}
	var tk, pk, qk float64
	for _, v := range m {
		tk += v * v
	}
	tk -= float64(n)
	for _, v := range rows {
		pk += v * v
	}
	pk -= float64(n)
	for _, v := range cols {
		qk += v * v
	}
	qk -= float64(n)
	if pk == 0 || qk == 0 {
		if pk == 0 && qk == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return tk / math.Sqrt(pk*qk), nil
}

// oracleCurve cuts both dendrograms at every k = 2..n-1 and scores each cut
// pair with FowlkesMallows.
func oracleCurve(l1, l2 *cluster.Linkage) ([]int, []float64, error) {
	if l1.N != l2.N {
		return nil, nil, fmt.Errorf("bscore: dendrograms over %d vs %d observations", l1.N, l2.N)
	}
	var ks []int
	var bs []float64
	for k := 2; k <= l1.N-1; k++ {
		c1, err := l1.CutK(k)
		if err != nil {
			return nil, nil, err
		}
		c2, err := l2.CutK(k)
		if err != nil {
			return nil, nil, err
		}
		bk, err := FowlkesMallows(c1, c2)
		if err != nil {
			return nil, nil, err
		}
		ks = append(ks, k)
		bs = append(bs, bk)
	}
	return ks, bs, nil
}

// oracleBScore is the mean of B_k over k = 2..n-1 (k = 2 alone for n ≤ 3),
// summed in ascending k.
func oracleBScore(l1, l2 *cluster.Linkage) (float64, error) {
	if l1.N != l2.N {
		return 0, fmt.Errorf("bscore: dendrograms over %d vs %d observations", l1.N, l2.N)
	}
	n := l1.N
	if n < 2 {
		return 1, nil
	}
	lo, hi := 2, n-1
	if hi < lo {
		hi = lo
	}
	sum, cnt := 0.0, 0
	for k := lo; k <= hi; k++ {
		c1, err := l1.CutK(k)
		if err != nil {
			return 0, err
		}
		c2, err := l2.CutK(k)
		if err != nil {
			return 0, err
		}
		bk, err := FowlkesMallows(c1, c2)
		if err != nil {
			return 0, err
		}
		sum += bk
		cnt++
	}
	return sum / float64(cnt), nil
}

// tieMatrix is a random n×n dissimilarity matrix drawn from few distinct
// values, so most pairs tie, like the JSMs of real trace sets.
func tieMatrix(rng *rand.Rand, n, levels int) [][]float64 {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := float64(rng.Intn(levels)) / float64(levels)
			d[i][j], d[j][i] = v, v
		}
	}
	return d
}

// TestMergeWalkMatchesCutAndCount: BScore and Curve equal the cut-and-count
// oracle bit for bit, for every linkage method and every n up to 80, on
// tie-heavy random matrices.
func TestMergeWalkMatchesCutAndCount(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, method := range cluster.AllMethods() {
		for n := 0; n <= 80; n++ {
			levels := 2 + rng.Intn(4)
			l1, err := cluster.Build(tieMatrix(rng, n, levels), method)
			if err != nil {
				t.Fatal(err)
			}
			l2, err := cluster.Build(tieMatrix(rng, n, levels), method)
			if err != nil {
				t.Fatal(err)
			}
			for _, pair := range [][2]*cluster.Linkage{{l1, l2}, {l2, l1}, {l1, l1}} {
				want, err := oracleBScore(pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				got, err := BScore(pair[0], pair[1])
				if err != nil || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d: BScore = %v (%v), oracle %v", method, n, got, err, want)
				}
				wks, wbs, err := oracleCurve(pair[0], pair[1])
				if err != nil {
					t.Fatal(err)
				}
				ks, bs, err := Curve(pair[0], pair[1])
				if err != nil || len(ks) != len(wks) || len(bs) != len(wbs) {
					t.Fatalf("%s n=%d: Curve = %v %v (%v), oracle %v %v", method, n, ks, bs, err, wks, wbs)
				}
				for i := range wks {
					if ks[i] != wks[i] || math.Float64bits(bs[i]) != math.Float64bits(wbs[i]) {
						t.Fatalf("%s n=%d: B_%d = %v, oracle B_%d = %v", method, n, ks[i], bs[i], wks[i], wbs[i])
					}
				}
			}
			if n > 0 {
				short, err := cluster.Build(tieMatrix(rng, n-1, levels), method)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := BScore(l1, short); err == nil {
					t.Fatalf("%s n=%d: BScore accepted an %d-observation dendrogram", method, n, n-1)
				}
				if _, _, err := Curve(short, l1); err == nil {
					t.Fatalf("%s n=%d: Curve accepted an %d-observation dendrogram", method, n, n-1)
				}
			}
		}
	}
}

func TestFowlkesMallowsIdentical(t *testing.T) {
	got, err := FowlkesMallows([]int{0, 0, 1, 1}, []int{1, 1, 0, 0})
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("identical partitions (relabeled) = %f (%v), want 1", got, err)
	}
}

func TestFowlkesMallowsOrthogonal(t *testing.T) {
	// Partitions {01}{23} vs {02}{13}: each pair co-clustered in one but
	// not the other -> Tk = 0.
	got, err := FowlkesMallows([]int{0, 0, 1, 1}, []int{0, 1, 0, 1})
	if err != nil || got != 0 {
		t.Errorf("orthogonal = %f (%v), want 0", got, err)
	}
}

func TestFowlkesMallowsHandComputed(t *testing.T) {
	// a = {0,1}{2,3,4}, b = {0,1,2}{3,4}.
	// m = [[2,0],[1,2]] -> Tk = 4+1+4-5 = 4
	// Pk = 4+9-5 = 8; Qk = 9+4-5 = 8 -> B = 4/8 = 0.5
	got, err := FowlkesMallows([]int{0, 0, 1, 1, 1}, []int{0, 0, 0, 1, 1})
	if err != nil || math.Abs(got-0.5) > 1e-12 {
		t.Errorf("B = %f (%v), want 0.5", got, err)
	}
}

func TestFowlkesMallowsSingletons(t *testing.T) {
	// All-singletons vs all-singletons: defined as 1.
	got, err := FowlkesMallows([]int{0, 1, 2}, []int{2, 1, 0})
	if err != nil || got != 1 {
		t.Errorf("singletons = %f (%v)", got, err)
	}
	// All-singletons vs one lump: 0 by convention.
	got, err = FowlkesMallows([]int{0, 1, 2}, []int{0, 0, 0})
	if err != nil || got != 0 {
		t.Errorf("mixed degenerate = %f (%v)", got, err)
	}
}

func TestFowlkesMallowsErrors(t *testing.T) {
	if _, err := FowlkesMallows([]int{0}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FowlkesMallows(nil, nil); err == nil {
		t.Error("empty labelings accepted")
	}
}

func distM(points []float64) [][]float64 {
	n := len(points)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = math.Abs(points[i] - points[j])
		}
	}
	return d
}

func TestBScoreIdenticalDendrograms(t *testing.T) {
	lk, err := cluster.Build(distM([]float64{0, 1, 5, 6, 20}), cluster.Ward)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BScore(lk, lk)
	if err != nil || math.Abs(got-1) > 1e-12 {
		t.Errorf("self B-score = %f (%v)", got, err)
	}
}

func TestBScoreDetectsReorganization(t *testing.T) {
	// Normal: {0,1} close, {10,11} close, 30 outlier.
	// Faulty: point 1 moved to 10.5 — cluster structure changes.
	norm, _ := cluster.Build(distM([]float64{0, 1, 10, 11, 30}), cluster.Ward)
	faul, _ := cluster.Build(distM([]float64{0, 10.5, 10, 11, 30}), cluster.Ward)
	same, _ := BScore(norm, norm)
	diff, err := BScore(norm, faul)
	if err != nil {
		t.Fatal(err)
	}
	if diff >= same {
		t.Errorf("reorganized dendrogram should score below identical: %f vs %f", diff, same)
	}
}

func TestBScoreSizeMismatch(t *testing.T) {
	a, _ := cluster.Build(distM([]float64{0, 1}), cluster.Single)
	b, _ := cluster.Build(distM([]float64{0, 1, 2}), cluster.Single)
	if _, err := BScore(a, b); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, _, err := Curve(a, b); err == nil {
		t.Error("Curve size mismatch accepted")
	}
}

func TestBScoreTinyN(t *testing.T) {
	one, _ := cluster.Build(distM([]float64{0}), cluster.Single)
	if got, err := BScore(one, one); err != nil || got != 1 {
		t.Errorf("n=1: %f %v", got, err)
	}
	two, _ := cluster.Build(distM([]float64{0, 5}), cluster.Single)
	if got, err := BScore(two, two); err != nil || got != 1 {
		t.Errorf("n=2: %f %v", got, err)
	}
}

func TestCurve(t *testing.T) {
	lk, _ := cluster.Build(distM([]float64{0, 1, 5, 6, 20}), cluster.Average)
	ks, bs, err := Curve(lk, lk)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 3 || ks[0] != 2 || ks[2] != 4 {
		t.Errorf("ks = %v", ks)
	}
	for _, b := range bs {
		if math.Abs(b-1) > 1e-12 {
			t.Errorf("self curve = %v", bs)
		}
	}
}

// Property: B_k is symmetric, in [0,1], invariant to label permutation, and
// 1 on identical partitions.
func TestQuickFowlkesMallowsProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%10 + 2
		a := make([]int, n)
		b := make([]int, n)
		for i := range a {
			a[i] = rng.Intn(3)
			b[i] = rng.Intn(3)
		}
		ab, err1 := FowlkesMallows(a, b)
		ba, err2 := FowlkesMallows(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(ab-ba) > 1e-12 || ab < -1e-12 || ab > 1+1e-12 {
			return false
		}
		// Permute a's labels: score with b unchanged.
		perm := map[int]int{0: 2, 1: 0, 2: 1}
		ap := make([]int, n)
		for i := range a {
			ap[i] = perm[a[i]]
		}
		apb, err := FowlkesMallows(ap, b)
		if err != nil || math.Abs(apb-ab) > 1e-12 {
			return false
		}
		self, err := FowlkesMallows(a, a)
		return err == nil && math.Abs(self-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBScoreCurveCutErrors(t *testing.T) {
	// A dendrogram over zero observations exercises the degenerate path.
	z, _ := cluster.Build(nil, cluster.Single)
	if got, err := BScore(z, z); err != nil || got != 1 {
		t.Errorf("empty BScore = %f, %v", got, err)
	}
	ks, bs, err := Curve(z, z)
	if err != nil || len(ks) != 0 || len(bs) != 0 {
		t.Errorf("empty Curve = %v %v %v", ks, bs, err)
	}
}

func TestRenderCurve(t *testing.T) {
	norm, _ := cluster.Build(distM([]float64{0, 1, 10, 11, 30, 31}), cluster.Ward)
	faul, _ := cluster.Build(distM([]float64{0, 30.5, 10, 11, 30, 31}), cluster.Ward)
	out, err := RenderCurve(norm, faul)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "B_k  k=2..5") || !strings.Contains(out, "mean") {
		t.Errorf("curve = %q", out)
	}
	self, err := RenderCurve(norm, norm)
	if err != nil || !strings.Contains(self, "mean 1.000") {
		t.Errorf("self curve = %q (%v)", self, err)
	}
	two, _ := cluster.Build(distM([]float64{0, 1}), cluster.Single)
	empty, err := RenderCurve(two, two)
	if err != nil || !strings.Contains(empty, "no informative") {
		t.Errorf("degenerate curve = %q (%v)", empty, err)
	}
	if _, err := RenderCurve(norm, two); err == nil {
		t.Error("size mismatch accepted")
	}
}
