package jaccard

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"difftrace/internal/fca"
)

// randomJSMPair builds two JSMs over the same names with random similarity
// values in [0, 1].
func randomJSMPair(rng *rand.Rand, n int) (*JSM, *JSM) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("%d.%d", rng.Intn(8), i)
	}
	build := func() *JSM {
		m := make([][]float64, n)
		for i := range m {
			m[i] = make([]float64, n)
			m[i][i] = 1
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64()
				m[i][j], m[j][i] = v, v
			}
		}
		return &JSM{Names: append([]string(nil), names...), M: m}
	}
	return build(), build()
}

// TestDiffSymmetryProperties: for random symmetric matrices, JSM_D is
// symmetric, non-negative, zero on the diagonal, and |a−b| == |b−a|.
func TestDiffSymmetryProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		a, b := randomJSMPair(rng, 2+rng.Intn(12))
		d1, err := Diff(a, b)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Diff(b, a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range d1.M {
			if d1.M[i][i] != 0 {
				t.Fatalf("trial %d: diagonal (%d,%d) = %v, want 0", trial, i, i, d1.M[i][i])
			}
			for j := range d1.M[i] {
				if d1.M[i][j] < 0 {
					t.Fatalf("trial %d: negative delta at (%d,%d)", trial, i, j)
				}
				if d1.M[i][j] != d1.M[j][i] {
					t.Fatalf("trial %d: JSM_D not symmetric at (%d,%d)", trial, i, j)
				}
				if d1.M[i][j] != d2.M[i][j] {
					t.Fatalf("trial %d: |a-b| != |b-a| at (%d,%d)", trial, i, j)
				}
			}
		}
		// Diff with itself is all zeros and RowDelta is additive over rows.
		self, err := Diff(a, a)
		if err != nil {
			t.Fatal(err)
		}
		for i := range self.M {
			if self.RowDelta(i) != 0 {
				t.Fatalf("trial %d: self-diff row %d delta %v", trial, i, self.RowDelta(i))
			}
		}
	}
}

// TestRowDeltaMatchesManualSum: RowDelta is exactly the row sum, and the
// suspect ranking is the descending stable sort of those sums.
func TestRowDeltaMatchesManualSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randomJSMPair(rng, 9)
	d, err := Diff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.M {
		sum := 0.0
		for _, v := range d.M[i] {
			sum += v
		}
		if got := d.RowDelta(i); got != sum {
			t.Fatalf("RowDelta(%d) = %v, want %v", i, got, sum)
		}
	}
	sus := d.Suspects()
	if len(sus) != len(d.Names) {
		t.Fatalf("suspect count %d, want %d", len(sus), len(d.Names))
	}
	for i := 1; i < len(sus); i++ {
		if sus[i-1].Score < sus[i].Score {
			t.Fatalf("suspects not descending at %d: %v then %v", i, sus[i-1], sus[i])
		}
	}
}

// TestNewParallelMatchesSequential: the row-block parallel JSM is
// bit-identical to the sequential one for random attribute sets.
func TestNewParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	attrs := map[string]fca.AttrSet{}
	for i := 0; i < 23; i++ {
		s := fca.NewAttrSet()
		for a := 0; a < 1+rng.Intn(20); a++ {
			s.Add(fmt.Sprintf("attr%d", rng.Intn(30)))
		}
		attrs[fmt.Sprintf("T%d", i)] = s
	}
	seq := New(attrs)
	for _, w := range []int{2, 4, 16} {
		par := NewParallelObserved(attrs, w, nil)
		if len(par.Names) != len(seq.Names) {
			t.Fatalf("workers=%d: name counts differ", w)
		}
		for i := range seq.Names {
			if seq.Names[i] != par.Names[i] {
				t.Fatalf("workers=%d: name order differs at %d", w, i)
			}
			for j := range seq.M[i] {
				if seq.M[i][j] != par.M[i][j] {
					t.Fatalf("workers=%d: cell (%d,%d) %v vs %v", w, i, j, seq.M[i][j], par.M[i][j])
				}
			}
		}
	}
}

// lessNaturalNames is the generator vocabulary for the total-order checks:
// numeric suffixes vs plain strings, zero-padding, multi-component IDs.
var lessNaturalNames = []string{
	"", "T1", "T2", "T10", "T01", "T001", "t1", "T", "T1a", "T1a2",
	"0", "1", "2", "10", "01", "9", "0.1", "1.0", "6.3", "6.4", "10.2",
	"5.0", "5", "50", "a", "ab", "b", "a1b2", "a10b", "a2b",
	"MPI_Send", "MPI_Recv", "L3", "L10", "L9",
}

// TestLessNaturalTotalOrder: LessNatural is a strict total order —
// irreflexive, asymmetric, transitive, and total (trichotomy) — over the
// edge-case vocabulary.
func TestLessNaturalTotalOrder(t *testing.T) {
	ns := lessNaturalNames
	for _, a := range ns {
		if LessNatural(a, a) {
			t.Errorf("irreflexivity: LessNatural(%q, %q)", a, a)
		}
		for _, b := range ns {
			lt, gt := LessNatural(a, b), LessNatural(b, a)
			if lt && gt {
				t.Errorf("asymmetry: %q and %q each less than the other", a, b)
			}
			if a != b && !lt && !gt {
				t.Errorf("totality: %q and %q incomparable", a, b)
			}
			if a == b && (lt || gt) {
				t.Errorf("equal strings compare unequal: %q", a)
			}
			for _, c := range ns {
				if LessNatural(a, b) && LessNatural(b, c) && !LessNatural(a, c) {
					t.Errorf("transitivity: %q < %q < %q but not %q < %q", a, b, c, a, c)
				}
			}
		}
	}
}

// TestLessNaturalNumericEdges pins the intended orderings: numeric chunks
// compare by value, number-vs-text mixes stay consistent, and zero-padded
// variants are distinct but ordered.
func TestLessNaturalNumericEdges(t *testing.T) {
	cases := []struct {
		a, b string
	}{
		{"T2", "T10"},   // numeric suffix beats lexicographic
		{"6.3", "6.4"},  // component-wise
		{"6.4", "10.2"}, // leading numeric chunk by value
		{"9", "10"},
		{"L9", "L10"},
		{"T1", "T1a"}, // prefix before extension
		{"a2b", "a10b"},
	}
	for _, c := range cases {
		if !LessNatural(c.a, c.b) {
			t.Errorf("want %q < %q", c.a, c.b)
		}
		if LessNatural(c.b, c.a) {
			t.Errorf("want !(%q < %q)", c.b, c.a)
		}
	}
	// "T01" and "T1" have equal numeric keys: the raw-string tiebreak keeps
	// them distinct and ordered ("T01" < "T1" lexicographically).
	if !LessNatural("T01", "T1") || LessNatural("T1", "T01") {
		t.Error("zero-padded tiebreak broken for T01 vs T1")
	}
	// Sanity: the vocabulary itself has no duplicates, so the trichotomy
	// checks above really covered distinct pairs.
	seen := map[string]bool{}
	for _, n := range lessNaturalNames {
		if seen[n] {
			t.Fatalf("duplicate vocab entry %q", n)
		}
		seen[n] = true
	}
}

// randomNaturalName joins text chunks and digit runs: runs with leading
// zeros, so "01" and "1" share a numeric key, and runs longer than 20
// digits, which the key leaves unpadded.
func randomNaturalName(rng *rand.Rand) string {
	var b strings.Builder
	for c := rng.Intn(4); c >= 0; c-- {
		switch rng.Intn(4) {
		case 0:
			b.WriteString([]string{"T", "t", ".", "L", "MPI_", "a"}[rng.Intn(6)])
		case 1:
			b.WriteString(strings.Repeat("0", rng.Intn(3)))
			fallthrough
		case 2:
			b.WriteString(fmt.Sprint(rng.Intn(12)))
		case 3:
			for d := 19 + rng.Intn(5); d > 0; d-- {
				b.WriteByte(byte('0' + rng.Intn(10)))
			}
		}
	}
	return b.String()
}

// sprintfKey is naturalKey as first written, padding with fmt.
func sprintfKey(s string) []string {
	var parts []string
	for i := 0; i < len(s); {
		j := i
		digit := s[i] >= '0' && s[i] <= '9'
		for j < len(s) && (s[j] >= '0' && s[j] <= '9') == digit {
			j++
		}
		if digit {
			parts = append(parts, fmt.Sprintf("%020s", s[i:j]))
		} else {
			parts = append(parts, s[i:j])
		}
		i = j
	}
	return parts
}

// TestNaturalOrderMatchesLessNatural: NaturalOrder sorts random names
// exactly as sort.Slice with LessNatural does, and naturalKey pads numbers
// exactly as fmt's %020s does.
func TestNaturalOrderMatchesLessNatural(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		names := make([]string, rng.Intn(40))
		for i := range names {
			names[i] = randomNaturalName(rng)
			if i > 0 && rng.Intn(8) == 0 {
				names[i] = names[rng.Intn(i)] // duplicates too
			}
			if got, want := naturalKey(names[i]), sprintfKey(names[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("naturalKey(%q) = %q, want %q", names[i], got, want)
			}
		}
		want := append([]string(nil), names...)
		sort.Slice(want, func(i, j int) bool { return LessNatural(want[i], want[j]) })
		got := append([]string(nil), names...)
		sort.Sort(NaturalOrder(got))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("NaturalOrder(%q)\n got %q\nwant %q", names, got, want)
		}
	}
}
