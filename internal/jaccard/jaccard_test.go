package jaccard

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"difftrace/internal/fca"
)

func oddEvenAttrs() map[string]fca.AttrSet {
	common := []string{"MPI_Init", "MPI_Comm_Size", "MPI_Comm_Rank", "MPI_Finalize"}
	even := fca.NewAttrSet(append([]string{"L0"}, common...)...)
	odd := fca.NewAttrSet(append([]string{"L1"}, common...)...)
	return map[string]fca.AttrSet{"T0": even, "T1": odd, "T2": even, "T3": odd}
}

func TestFigure4JSM(t *testing.T) {
	j := New(oddEvenAttrs())
	if !reflect.DeepEqual(j.Names, []string{"T0", "T1", "T2", "T3"}) {
		t.Fatalf("names = %v", j.Names)
	}
	// Same parity: identical attribute sets -> 1. Cross parity: 4 shared of
	// 6 union -> 2/3.
	check := func(a, b string, want float64) {
		got, err := j.At(a, b)
		if err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("JSM[%s][%s] = %f (%v), want %f", a, b, got, err, want)
		}
	}
	check("T0", "T2", 1)
	check("T1", "T3", 1)
	check("T0", "T1", 2.0/3)
	check("T2", "T3", 2.0/3)
	check("T0", "T0", 1)
}

func TestNaturalOrdering(t *testing.T) {
	attrs := map[string]fca.AttrSet{}
	for _, n := range []string{"10.2", "2.4", "2.10", "6.4", "T10", "T2"} {
		attrs[n] = fca.NewAttrSet("x")
	}
	j := New(attrs)
	want := []string{"2.4", "2.10", "6.4", "10.2", "T2", "T10"}
	if !reflect.DeepEqual(j.Names, want) {
		t.Errorf("names = %v, want %v", j.Names, want)
	}
}

func TestFromLatticeAgreesWithDirect(t *testing.T) {
	attrs := oddEvenAttrs()
	l := fca.NewLattice()
	for _, n := range []string{"T0", "T1", "T2", "T3"} {
		l.AddObject(n, attrs[n])
	}
	a := New(attrs)
	b := FromLattice(l)
	if !reflect.DeepEqual(a.Names, b.Names) {
		t.Fatalf("names differ: %v vs %v", a.Names, b.Names)
	}
	for i := range a.M {
		for k := range a.M[i] {
			if math.Abs(a.M[i][k]-b.M[i][k]) > 1e-12 {
				t.Fatalf("M[%d][%d]: %f vs %f", i, k, a.M[i][k], b.M[i][k])
			}
		}
	}
}

func TestDiffAndSuspects(t *testing.T) {
	normal := New(oddEvenAttrs())
	// Fault: T1 loses its loop attribute (truncated trace).
	faulty := oddEvenAttrs()
	faulty["T1"] = fca.NewAttrSet("MPI_Init", "MPI_Comm_Size", "MPI_Comm_Rank")
	fj := New(faulty)
	d, err := Diff(fj, normal)
	if err != nil {
		t.Fatal(err)
	}
	sus := d.Suspects()
	if sus[0].Name != "T1" {
		t.Errorf("top suspect = %v", sus)
	}
}

func TestDiffMismatchErrors(t *testing.T) {
	a := New(map[string]fca.AttrSet{"x": fca.NewAttrSet("a")})
	b := New(map[string]fca.AttrSet{"x": fca.NewAttrSet("a"), "y": fca.NewAttrSet("b")})
	if _, err := Diff(a, b); err == nil {
		t.Error("size mismatch accepted")
	}
	c := New(map[string]fca.AttrSet{"z": fca.NewAttrSet("a")})
	if _, err := Diff(a, c); err == nil {
		t.Error("name mismatch accepted")
	}
}

func TestDistanceMatrix(t *testing.T) {
	j := New(oddEvenAttrs())
	d := j.Distance()
	for i := range d {
		if d[i][i] != 0 {
			t.Errorf("diagonal not 0")
		}
		for k := range d[i] {
			if math.Abs(d[i][k]-(1-j.M[i][k])) > 1e-12 {
				t.Errorf("distance[%d][%d] wrong", i, k)
			}
		}
	}
}

func TestRenderings(t *testing.T) {
	j := New(oddEvenAttrs())
	hm := j.Heatmap()
	if strings.Count(hm, "\n") != 4 {
		t.Errorf("heatmap rows:\n%s", hm)
	}
	if !strings.Contains(hm, "@") { // similarity-1 cells at full shade
		t.Errorf("heatmap has no full-shade cells:\n%s", hm)
	}
	s := j.String()
	if !strings.Contains(s, "1.00") || !strings.Contains(s, "0.67") {
		t.Errorf("numeric render:\n%s", s)
	}
	if j.Index("T2") != 2 || j.Index("zz") != -1 {
		t.Error("Index wrong")
	}
	if _, err := j.At("zz", "T0"); err == nil {
		t.Error("At with unknown name should error")
	}
}

// Property: JSM is symmetric with unit diagonal, entries in [0,1]; JSM_D of
// a matrix with itself is all zeros.
func TestQuickJSMProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		cnt := int(n)%6 + 2
		attrs := map[string]fca.AttrSet{}
		rng := seed
		next := func() int64 { rng = rng*6364136223846793005 + 1442695040888963407; return rng }
		for i := 0; i < cnt; i++ {
			s := fca.NewAttrSet()
			for a := 0; a < 8; a++ {
				if next()%2 == 0 {
					s.Add(string(rune('a' + a)))
				}
			}
			attrs[string(rune('A'+i))] = s
		}
		j := New(attrs)
		for x := range j.M {
			if j.M[x][x] != 1 {
				return false
			}
			for y := range j.M {
				v := j.M[x][y]
				if v < 0 || v > 1 || v != j.M[y][x] {
					return false
				}
			}
		}
		d, err := Diff(j, j)
		if err != nil {
			return false
		}
		for x := range d.M {
			if d.RowDelta(x) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
