package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// Cophenetic returns the cophenetic distance matrix: entry (i,j) is the
// merge distance at which leaves i and j first share a cluster.
func (l *Linkage) Cophenetic() [][]float64 {
	members := make(map[int][]int, 2*l.N)
	for i := 0; i < l.N; i++ {
		members[i] = []int{i}
	}
	out := make([][]float64, l.N)
	for i := range out {
		out[i] = make([]float64, l.N)
	}
	for s, st := range l.Steps {
		ma, mb := members[st.A], members[st.B]
		for _, x := range ma {
			for _, y := range mb {
				out[x][y], out[y][x] = st.Distance, st.Distance
			}
		}
		members[l.N+s] = append(append([]int{}, ma...), mb...)
		delete(members, st.A)
		delete(members, st.B)
	}
	return out
}

// Monotone reports whether merge distances are non-decreasing (guaranteed
// for single/complete/average/weighted/ward; centroid and median can
// invert).
func (l *Linkage) Monotone() bool {
	for i := 1; i < len(l.Steps); i++ {
		if l.Steps[i].Distance < l.Steps[i-1].Distance-1e-9 {
			return false
		}
	}
	return true
}

// dist builds a distance matrix from 1-D points (Euclidean).
func dist(points []float64) [][]float64 {
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

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range AllMethods() {
		got, err := ParseMethod(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v: %v %v", m, got, err)
		}
	}
	if _, err := ParseMethod("bogus"); err == nil {
		t.Error("bogus method accepted")
	}
	if len(AllMethods()) != 7 {
		t.Errorf("methods = %d, want 7", len(AllMethods()))
	}
}

func TestValidation(t *testing.T) {
	if _, err := Build([][]float64{{0, 1}}, Single); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := Build([][]float64{{1}}, Single); err == nil {
		t.Error("nonzero diagonal accepted")
	}
	if _, err := Build([][]float64{{0, 1}, {2, 0}}, Single); err == nil {
		t.Error("asymmetric matrix accepted")
	}
	if _, err := Build([][]float64{{0, -1}, {-1, 0}}, Single); err == nil {
		t.Error("negative distance accepted")
	}
	// An invalid method is an error, never a panic: user input (flags,
	// config files) reaches Build unchecked.
	for _, m := range []Method{Method(-1), Method(99)} {
		if _, err := Build([][]float64{{0, 1}, {1, 0}}, m); err == nil {
			t.Errorf("invalid method %d accepted", m)
		}
		if m.Valid() {
			t.Errorf("Method(%d).Valid() = true", m)
		}
	}
	for _, m := range AllMethods() {
		if !m.Valid() {
			t.Errorf("%s not Valid", m)
		}
	}
}

// TestNonFiniteDistances: NaN and ±Inf cells are errors that name the
// cell, never a panic, and so is a working space that overflows: ward
// squares its inputs, and 1e200² is +Inf.
func TestNonFiniteDistances(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		all := [][]float64{{0, v, v}, {v, 0, v}, {v, v, 0}}
		one := [][]float64{{0, 1, 2}, {1, 0, 3}, {2, 3, 0}}
		one[2][1] = v
		for _, d := range [][][]float64{all, one} {
			for _, m := range AllMethods() {
				_, err := Build(d, m)
				if err == nil || !strings.Contains(err.Error(), "non-finite") {
					t.Errorf("%v cell, %s: err = %v", v, m, err)
				}
			}
		}
		if _, err := Build(one, Single); err == nil || !strings.Contains(err.Error(), "(2,1)") {
			t.Errorf("%v cell: err = %v, want it to name (2,1)", v, err)
		}
	}
	big := [][]float64{{0, 1e200}, {1e200, 0}}
	if _, err := Build(big, Ward); err == nil {
		t.Error("ward over 1e200 accepted")
	}
	if lk, err := Build(big, Single); err != nil || lk.Steps[0].Distance != 1e200 {
		t.Errorf("single over 1e200: %v %v", lk, err)
	}
}

func TestTrivialSizes(t *testing.T) {
	lk, err := Build(nil, Ward)
	if err != nil || len(lk.Steps) != 0 {
		t.Errorf("empty: %v %v", lk, err)
	}
	lk, err = Build([][]float64{{0}}, Ward)
	if err != nil || len(lk.Steps) != 0 {
		t.Errorf("singleton: %v %v", lk, err)
	}
	labels, err := lk.CutK(1)
	if err != nil || !reflect.DeepEqual(labels, []int{0}) {
		t.Errorf("singleton cut: %v %v", labels, err)
	}
}

func TestSingleLinkageChaining(t *testing.T) {
	// Points 0,1,2 close together; 10 far. Single linkage merges the chain
	// first.
	lk, err := Build(dist([]float64{0, 1, 2, 10}), Single)
	if err != nil {
		t.Fatal(err)
	}
	if len(lk.Steps) != 3 {
		t.Fatalf("steps = %d", len(lk.Steps))
	}
	// First two merges at distance 1, last at 8 (single: min gap to 10).
	if lk.Steps[0].Distance != 1 || lk.Steps[1].Distance != 1 {
		t.Errorf("early merges = %+v", lk.Steps)
	}
	if lk.Steps[2].Distance != 8 {
		t.Errorf("final merge = %+v", lk.Steps[2])
	}
	labels, _ := lk.CutK(2)
	if !reflect.DeepEqual(labels, []int{0, 0, 0, 1}) {
		t.Errorf("labels = %v", labels)
	}
}

func TestCompleteVsSingle(t *testing.T) {
	// Complete linkage's final merge distance is the full diameter.
	d := dist([]float64{0, 1, 2, 10})
	s, _ := Build(d, Single)
	c, _ := Build(d, Complete)
	if got := c.Steps[len(c.Steps)-1].Distance; got != 10 {
		t.Errorf("complete final = %f, want 10", got)
	}
	if s.Steps[len(s.Steps)-1].Distance >= c.Steps[len(c.Steps)-1].Distance {
		t.Error("single final merge should be below complete's")
	}
}

func TestAverageLinkageHandComputed(t *testing.T) {
	// Three points: 0, 2, 5. Merge(0,2) at 2; then average distance from
	// {0,2} to {5} = (5+3)/2 = 4.
	lk, err := Build(dist([]float64{0, 2, 5}), Average)
	if err != nil {
		t.Fatal(err)
	}
	if lk.Steps[0].Distance != 2 || math.Abs(lk.Steps[1].Distance-4) > 1e-12 {
		t.Errorf("steps = %+v", lk.Steps)
	}
}

func TestWardHandComputed(t *testing.T) {
	// Two tight pairs: {0, 1} and {10, 11}. Ward merges within pairs first,
	// then between: d² = (2·2/(2+2))·... For singleton merges ward distance
	// equals the point distance.
	lk, err := Build(dist([]float64{0, 1, 10, 11}), Ward)
	if err != nil {
		t.Fatal(err)
	}
	if lk.Steps[0].Distance != 1 || lk.Steps[1].Distance != 1 {
		t.Errorf("within-pair merges = %+v", lk.Steps)
	}
	// Ward distance between {0,1} and {10,11}: sqrt of the LW combination;
	// for 1-D clusters with centroids 0.5 and 10.5:
	// d² = ((ni*nj)/(ni+nj))*2*||c1-c2||² -> SciPy reports
	// sqrt(2*ni*nj/(ni+nj)*Δ²) = sqrt(2*2*2/4*100) = sqrt(200) ≈ 14.1421
	want := math.Sqrt(2 * 2 * 2 / 4.0 * 100)
	if math.Abs(lk.Steps[2].Distance-want) > 0.05 {
		t.Errorf("between-pair ward distance = %f, want ≈ %f", lk.Steps[2].Distance, want)
	}
	if !lk.Monotone() {
		t.Error("ward linkage must be monotone")
	}
}

func TestCentroidHandComputed(t *testing.T) {
	// Centroid distance between merged {0,2} (centroid 1) and {6}: 5.
	lk, err := Build(dist([]float64{0, 2, 6}), Centroid)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lk.Steps[1].Distance-5) > 1e-9 {
		t.Errorf("centroid distance = %f, want 5", lk.Steps[1].Distance)
	}
}

func TestMedianHandComputed(t *testing.T) {
	// Median (WPGMC): same as centroid for singleton merges.
	lk, err := Build(dist([]float64{0, 2, 6}), Median)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lk.Steps[1].Distance-5) > 1e-9 {
		t.Errorf("median distance = %f, want 5", lk.Steps[1].Distance)
	}
}

func TestWeightedHandComputed(t *testing.T) {
	// WPGMA: distance from {0,2} to 5 = (5+3)/2 = 4 (same as UPGMA for
	// singleton merge).
	lk, err := Build(dist([]float64{0, 2, 5}), Weighted)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lk.Steps[1].Distance-4) > 1e-12 {
		t.Errorf("steps = %+v", lk.Steps)
	}
}

func TestCutKAndDistance(t *testing.T) {
	lk, _ := Build(dist([]float64{0, 1, 5, 6, 20}), Average)
	labels, err := lk.CutK(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(labels, []int{0, 0, 1, 1, 2}) {
		t.Errorf("CutK(3) = %v", labels)
	}
	if _, err := lk.CutK(0); err == nil {
		t.Error("CutK(0) accepted")
	}
	if _, err := lk.CutK(6); err == nil {
		t.Error("CutK(n+1) accepted")
	}
	all, _ := lk.CutK(1)
	if !reflect.DeepEqual(all, []int{0, 0, 0, 0, 0}) {
		t.Errorf("CutK(1) = %v", all)
	}
	none, _ := lk.CutK(5)
	if !reflect.DeepEqual(none, []int{0, 1, 2, 3, 4}) {
		t.Errorf("CutK(n) = %v", none)
	}
}

func TestCophenetic(t *testing.T) {
	lk, _ := Build(dist([]float64{0, 1, 10}), Single)
	c := lk.Cophenetic()
	if c[0][1] != 1 {
		t.Errorf("coph(0,1) = %f", c[0][1])
	}
	if c[0][2] != 9 || c[1][2] != 9 {
		t.Errorf("coph to far point = %f/%f", c[0][2], c[1][2])
	}
	for i := range c {
		if c[i][i] != 0 {
			t.Error("cophenetic diagonal nonzero")
		}
	}
}

func TestRender(t *testing.T) {
	lk, _ := Build(dist([]float64{0, 1, 10}), Single)
	out := lk.Render([]string{"T0", "T1", "T2"})
	if !contains(out, "merge(T0, T1)") {
		t.Errorf("render:\n%s", out)
	}
	out = lk.Render(nil)
	if !contains(out, "obs0") {
		t.Errorf("render without names:\n%s", out)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool { return indexOf(s, sub) >= 0 })()
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: every method produces exactly n-1 steps, sizes sum correctly,
// final size is n, and cuts partition all observations.
func TestQuickLinkageInvariants(t *testing.T) {
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%8 + 2
		method := Method(int(mRaw) % 7)
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = rng.Float64() * 100
		}
		lk, err := Build(dist(pts), method)
		if err != nil {
			return false
		}
		if len(lk.Steps) != n-1 {
			return false
		}
		if lk.Steps[n-2].Size != n {
			return false
		}
		for k := 1; k <= n; k++ {
			labels, err := lk.CutK(k)
			if err != nil || len(labels) != n {
				return false
			}
			distinct := map[int]bool{}
			for _, l := range labels {
				distinct[l] = true
			}
			if len(distinct) != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: single/complete/average/weighted/ward are monotone.
func TestQuickMonotoneMethods(t *testing.T) {
	methods := []Method{Single, Complete, Average, Weighted, Ward}
	f := func(seed int64, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = rng.Float64() * 10
		}
		lk, err := Build(dist(pts), methods[int(mRaw)%len(methods)])
		return err == nil && lk.Monotone()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: cophenetic distances for single linkage never exceed the
// original distances (ultrametric below the metric).
func TestQuickSingleCopheneticBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6
		pts := make([]float64, n)
		for i := range pts {
			pts[i] = rng.Float64() * 10
		}
		d := dist(pts)
		lk, err := Build(d, Single)
		if err != nil {
			return false
		}
		c := lk.Cophenetic()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if c[i][j] > d[i][j]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// buildFullScan is the reference linkage: the closest-pair scan visits
// every (i, j>i) slot pair of an n×n [][]float64, dead slots included, and
// is the oracle the live-slot scan is held to.
func buildFullScan(d [][]float64, method Method) *Linkage {
	n := len(d)
	lk := &Linkage{N: n}
	if n <= 1 {
		return lk
	}
	sq := method.squaredSpace()
	cur := make([][]float64, n)
	for i := range cur {
		cur[i] = make([]float64, n)
		for j := range d[i] {
			v := d[i][j]
			if sq {
				v = v * v
			}
			cur[i][j] = v
		}
	}
	active := make([]int, n)
	size := make([]float64, n)
	for i := range active {
		active[i] = i
		size[i] = 1
	}
	nextID := n
	for step := 0; step < n-1; step++ {
		bi, bj := -1, -1
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if active[i] < 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if active[j] < 0 {
					continue
				}
				if cur[i][j] < best-1e-15 {
					best = cur[i][j]
					bi, bj = i, j
				}
			}
		}
		ni, nj := size[bi], size[bj]
		dist := best
		if sq {
			dist = math.Sqrt(math.Max(0, dist))
		}
		a, b := active[bi], active[bj]
		if a > b {
			a, b = b, a
		}
		lk.Steps = append(lk.Steps, Step{A: a, B: b, Distance: dist, Size: int(ni + nj)})
		for k := 0; k < n; k++ {
			if active[k] < 0 || k == bi || k == bj {
				continue
			}
			ai, aj, beta, gamma := method.coeffs(ni, nj, size[k])
			nd := ai*cur[k][bi] + aj*cur[k][bj] + beta*cur[bi][bj] +
				gamma*math.Abs(cur[k][bi]-cur[k][bj])
			cur[k][bi], cur[bi][k] = nd, nd
		}
		active[bi] = nextID
		nextID++
		active[bj] = -1
		size[bi] = ni + nj
	}
	return lk
}

// tieMatrix draws each distance from levels levels in [0, 1], then nudges
// it up by fewer than ulps ulps (at most four stay under 1e-15 at 1.0), so
// pairs tie exactly or within the scan's 1e-15 tolerance. With skew, the
// lower triangle is nudged apart from the upper one too, as far as Build's
// 1e-9 symmetry check lets a caller's matrix go.
func tieMatrix(rng *rand.Rand, n, levels, ulps int, skew bool) [][]float64 {
	nudge := func(v float64) float64 {
		for u := rng.Intn(ulps); u > 0; u-- {
			v = math.Nextafter(v, 2)
		}
		return v
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := nudge(float64(rng.Intn(levels)) / float64(max(levels-1, 1)))
			d[i][j], d[j][i] = v, v
			if skew {
				d[j][i] = nudge(v)
			}
		}
	}
	return d
}

// jaccardMatrix is a JSM's distance matrix, 1 − |A∩B|/|A∪B|, over n
// random attribute sets drawn from a universe of u attributes: with u
// small most sets repeat, so most entries tie exactly, zeros included, as
// in the JSMs of real runs.
func jaccardMatrix(rng *rand.Rand, n, u int) [][]float64 {
	sets := make([]uint64, n)
	for i := range sets {
		sets[i] = rng.Uint64() & (1<<u - 1)
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			inter := bits.OnesCount64(sets[i] & sets[j])
			union := bits.OnesCount64(sets[i] | sets[j])
			if i != j && union > 0 {
				d[i][j] = 1 - float64(inter)/float64(union)
			}
		}
	}
	return d
}

// sameSteps fails t unless Build's steps on d equal the full-scan
// reference's, distances bit for bit.
func sameSteps(t *testing.T, label string, d [][]float64, method Method) {
	t.Helper()
	got, err := Build(d, method)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := buildFullScan(d, method)
	if got.N != want.N || len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps, reference %d", label, len(got.Steps), len(want.Steps))
	}
	for s := range want.Steps {
		g, w := got.Steps[s], want.Steps[s]
		if g.A != w.A || g.B != w.B || g.Size != w.Size ||
			math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			t.Fatalf("%s step %d: %+v, reference %+v", label, s, g, w)
		}
	}
}

// TestLiveSlotScanMatchesFullScan: Build's steps equal the full-scan
// reference's, distances bit for bit, for every method on matrices full of
// exact ties and of near-ties closer than 1e-15, where the row caches
// often cannot prove the scan's pair and the step runs the scan.
func TestLiveSlotScanMatchesFullScan(t *testing.T) {
	// Single linkage merges (1,3) first, and row 0's new entry at column 1
	// ties the minimum it holds at columns 2 and 3: the row's first minimum
	// moves to column 1 without a rescan, a case random matrices seldom
	// reach.
	moved := [][]float64{
		{0, 3, 2, 2, 3},
		{3, 0, 5, 1, 5},
		{2, 5, 0, 5, 5},
		{2, 1, 5, 0, 5},
		{3, 5, 5, 5, 0},
	}
	rng := rand.New(rand.NewSource(3))
	for _, method := range AllMethods() {
		sameSteps(t, fmt.Sprintf("%s moved argmin", method), moved, method)
		for trial := 0; trial < 60; trial++ {
			n := rng.Intn(60)
			var d [][]float64
			switch trial % 3 {
			case 0:
				d = tieMatrix(rng, n, 4, 1, false) // exact ties only
			case 1:
				d = tieMatrix(rng, n, 4, 5, false)
			case 2:
				d = tieMatrix(rng, n, 4, 5, true)
			}
			sameSteps(t, fmt.Sprintf("%s n=%d", method, n), d, method)
		}
	}
}

// TestJaccardMatricesMatchFullScan: on JSM-shaped matrices as large as
// sweep inputs, where nearly every step is read from the row caches,
// Build's steps equal the full-scan reference's for every method.
func TestJaccardMatricesMatchFullScan(t *testing.T) {
	sizes := []int{2, 9, 64, 150, 320, 400}
	if testing.Short() {
		sizes = sizes[:4]
	}
	rng := rand.New(rand.NewSource(29))
	for _, method := range AllMethods() {
		for i, n := range sizes {
			u := []int{3, 5, 8, 12}[(int(method)+i)%4]
			sameSteps(t, fmt.Sprintf("%s n=%d u=%d", method, n, u), jaccardMatrix(rng, n, u), method)
		}
	}
}

// TestBuildWorkCounts pins the work the row caches save, so that an edit
// which falls back to the cubic scan fails here while its Steps stay
// right. On a 320-object JSM-shaped input, as large as a sweep's thread
// level, no ward step falls back, and rescans read at most n² cells
// (43,110 as written) where the scan visits n³/6 ≈ 5.5 M pairs.
func TestBuildWorkCounts(t *testing.T) {
	const n = 320
	d := jaccardMatrix(rand.New(rand.NewSource(n)), n, 5)
	var st stats
	if _, err := build(d, Ward, &st); err != nil {
		t.Fatal(err)
	}
	if st.fallbacks != 0 {
		t.Errorf("%d steps fell back to the scan, want 0", st.fallbacks)
	}
	if st.rescanned > n*n {
		t.Errorf("rescans read %d cells, want at most %d", st.rescanned, n*n)
	}
}

// FuzzBuildMatchesFullScan: Build's steps equal the full-scan reference's
// for every method on tie-heavy matrices with sub-1e-15 nudges and a
// skewed lower triangle; a NaN or ±Inf cell is an error, not a panic.
func FuzzBuildMatchesFullScan(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(6), uint8(4), uint8(1), false, uint8(0))
	f.Add(int64(2), uint8(30), uint8(4), uint8(2), uint8(5), true, uint8(0))
	f.Add(int64(3), uint8(45), uint8(5), uint8(9), uint8(3), false, uint8(0))
	f.Add(int64(4), uint8(7), uint8(0), uint8(3), uint8(2), false, uint8(1))
	f.Add(int64(5), uint8(7), uint8(6), uint8(3), uint8(2), true, uint8(2))
	f.Add(int64(6), uint8(7), uint8(1), uint8(3), uint8(2), false, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, mRaw, levels, ulps uint8, skew bool, bad uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 65
		method := Method(int(mRaw) % 7)
		d := tieMatrix(rng, n, 1+int(levels)%12, 1+int(ulps)%5, skew)
		if v := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1)}[bad%4]; v != 0 && n > 1 {
			i, j := rng.Intn(n), rng.Intn(n-1)
			if j >= i {
				j++
			}
			d[i][j] = v
			if _, err := Build(d, method); err == nil {
				t.Fatalf("%s: %v at (%d,%d) accepted", method, v, i, j)
			}
			return
		}
		sameSteps(t, fmt.Sprintf("%s n=%d", method, n), d, method)
	})
}
