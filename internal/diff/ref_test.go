package diff

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// myersRef is the reference Myers pass: it snapshots the whole V array,
// 2(n+m)+2 ints, before every step d, and is the oracle the bounded-memory
// myers is held to.
func myersRef(a, b []string) []elemOp {
	n, m := len(a), len(b)
	max := n + m
	if max == 0 {
		return nil
	}
	// V is indexed by diagonal k in [-max, max]; offset by max.
	v := make([]int, 2*max+2)
	var trace [][]int

	var dFound = -1
outer:
	for d := 0; d <= max; d++ {
		snapshot := make([]int, len(v))
		copy(snapshot, v)
		trace = append(trace, snapshot)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[max+k-1] < v[max+k+1]) {
				x = v[max+k+1] // move down (insert from b)
			} else {
				x = v[max+k-1] + 1 // move right (delete from a)
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[max+k] = x
			if x >= n && y >= m {
				dFound = d
				break outer
			}
		}
	}

	// Backtrack from (n, m) through the stored V arrays.
	var ops []elemOp
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vd := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vd[max+k-1] < vd[max+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vd[max+prevK]
		prevY := prevX - prevK
		// Snake: equal elements walked after the edit.
		for x > prevX && y > prevY {
			x--
			y--
			ops = append(ops, elemOp{op: Equal, ai: x, bi: y})
		}
		if x == prevX { // came from k+1: insertion of b[prevY]
			y--
			ops = append(ops, elemOp{op: Insert, bi: y})
		} else { // deletion of a[prevX]
			x--
			ops = append(ops, elemOp{op: Delete, ai: x})
		}
	}
	// Leading snake at d == 0.
	for x > 0 && y > 0 {
		x--
		y--
		ops = append(ops, elemOp{op: Equal, ai: x, bi: y})
	}
	// Reverse into forward order.
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// sameOps compares two elementary scripts, treating nil and empty alike.
func sameOps(got, want []elemOp) bool {
	return len(got) == 0 && len(want) == 0 || reflect.DeepEqual(got, want)
}

// symbols draws n tokens from an alphabet of k symbols.
func symbols(rng *rand.Rand, n, k int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + rng.Intn(k)))
	}
	return out
}

// TestMyersMatchesReference: myers returns exactly myersRef's elementary
// ops on random, tie-heavy, prefix-shaped, lopsided and empty-side inputs.
func TestMyersMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	check := func(kind string, a, b []string) {
		t.Helper()
		if got, want := myers(a, b), myersRef(a, b); !sameOps(got, want) {
			t.Fatalf("%s: a=%v b=%v\n got %v\nwant %v", kind, a, b, got, want)
		}
	}
	for trial := 0; trial < 300; trial++ {
		k := 1 + trial%6
		// random: independent lengths over a small alphabet.
		check("random", symbols(rng, rng.Intn(40), k), symbols(rng, rng.Intn(40), k))
		// tie-heavy: one or two symbols, so many paths share a cost.
		check("tie-heavy", symbols(rng, rng.Intn(60), 1+trial%2), symbols(rng, rng.Intn(60), 1+trial%2))
		// prefix-shaped: a long shared prefix, then different tails.
		pre := symbols(rng, rng.Intn(50), k)
		a := append(append([]string(nil), pre...), symbols(rng, rng.Intn(20), k)...)
		b := append(append([]string(nil), pre...), symbols(rng, rng.Intn(20), k)...)
		check("prefix", a, b)
		check("prefix-of", pre, a)
		// lopsided: m <= 3 with n >= 100, and the reverse.
		long, short := symbols(rng, 100+rng.Intn(100), k), symbols(rng, rng.Intn(4), k)
		check("lopsided", long, short)
		check("lopsided-reverse", short, long)
		// an empty side, with and without a shared prefix.
		check("empty-b", a, nil)
		check("empty-a", nil, b)
	}
	check("both-empty", nil, nil)
	check("identical", []string{"x", "y"}, []string{"x", "y"})
}

// FuzzMyersReference: myers and myersRef agree on token alphabets of 1 to
// 6 symbols.
func FuzzMyersReference(f *testing.F) {
	f.Add([]byte("ABCABBA"), []byte("CBABAC"), uint8(3))
	f.Add([]byte("aaaaaaaa"), []byte("aaa"), uint8(1))
	f.Add([]byte("abcdefgh"), []byte(""), uint8(6))
	f.Fuzz(func(t *testing.T, ra, rb []byte, k uint8) {
		mk := func(raw []byte) []string {
			out := make([]string, len(raw))
			for i, r := range raw {
				out[i] = string(rune('a' + int(r)%(1+int(k)%6)))
			}
			return out
		}
		a, b := mk(ra), mk(rb)
		if got, want := myers(a, b), myersRef(a, b); !sameOps(got, want) {
			t.Fatalf("a=%v b=%v\n got %v\nwant %v", a, b, got, want)
		}
	})
}

// truncatedPair builds a faulty-run shaped pair: a has n tokens over eight
// symbols, and b holds common of them in order followed by m-common tokens
// that a never shows, so the edit distance is exactly n+m-2*common.
func truncatedPair(rng *rand.Rand, n, m, common int) (a, b []string) {
	a = symbols(rng, n, 8)
	b = make([]string, 0, m)
	for i := 0; i < common; i++ {
		b = append(b, a[1+i*(n-1)/common])
	}
	for len(b) < m {
		b = append(b, "fresh")
	}
	return a, b
}

// TestDiffMemoryBound: one Diff call on a long normal and a short faulty
// sequence allocates a few MiB, not a copy of V per edit step (myersRef
// makes the three cases allocate 62.8, 83.2 and 62.9 MiB); with an empty
// side it allocates only the edit script.
func TestDiffMemoryBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name         string
		n, m, common int
		bound        uint64
	}{
		{"n2000-m14", 2000, 14, 10, 6 << 20},
		{"n1980-m800", 1980, 800, 509, 8 << 20},
		{"n2000-m0", 2000, 0, 0, 512 << 10},
	} {
		a, b := truncatedPair(rng, tc.n, tc.m, tc.common)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		edits := Diff(a, b)
		runtime.ReadMemStats(&after)
		if got, want := Distance(edits), tc.n+tc.m-2*tc.common; got != want {
			t.Fatalf("%s: distance %d, want %d", tc.name, got, want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.bound {
			t.Errorf("%s: Diff allocated %.2f MiB, bound %.2f MiB", tc.name, float64(got)/(1<<20), float64(tc.bound)/(1<<20))
		} else {
			t.Logf("%s: Diff allocated %.2f MiB", tc.name, float64(got)/(1<<20))
		}
	}
}
