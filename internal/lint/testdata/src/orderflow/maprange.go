package orderflow

// The same-function cases: iterating a map into an ordered sink without a
// canonical sort is flagged; collect-then-sort, commutative folds, and
// justified //lint:allow escapes are not.

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

func badAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want `slice "keys" \(never sorted in this function\)`
		keys = append(keys, k)
	}
	return keys
}

func badPrint(m map[string]int, b *strings.Builder) {
	for k, v := range m {
		fmt.Fprintf(b, "%s=%d\n", k, v) // want `map iteration reaches ordered sink fmt\.Fprintf`
	}
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want `map iteration reaches ordered sink \(\*strings\.Builder\)\.WriteString`
	}
	return b.String()
}

// badPrintInt prints a value whose type carries no order of its own: the
// calls themselves happen in map order.
func badPrintInt(m map[string]int, w io.Writer) {
	for _, v := range m {
		fmt.Fprintln(w, v) // want `map iteration reaches ordered sink fmt\.Fprintln`
	}
}

type node struct{ visits int }

// badSnapshot never lets the slice escape, but the visit order is the
// map's.
func badSnapshot(m map[string]*node) {
	snapshot := make([]*node, 0, len(m))
	for _, n := range m { // want `slice "snapshot" \(never sorted in this function\)`
		snapshot = append(snapshot, n)
	}
	for i, n := range snapshot {
		n.visits += i
	}
}

// badConcat accumulates keys outside any slice, then prints after the loop.
func badConcat(m map[string]int, w io.Writer) {
	s := ""
	for k := range m {
		s += k
	}
	fmt.Fprintln(w, s) // want `map iteration reaches ordered sink fmt\.Fprintln`
}

func goodCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goodSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func goodCommutativeFold(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func goodMapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// goodDenseSliceScan is the idiom that replaced the lattice's map-keyed
// concept store: intern keys to dense IDs once, keep the values in a
// slice, and iterate the slice — insertion order is deterministic, so no
// sort (and no allow directive) is needed.
func goodDenseSliceScan(ids map[string]int, byID []int, b *strings.Builder) {
	for _, v := range byID {
		fmt.Fprintf(b, "%d\n", v)
	}
	_ = ids
}

func allowedEscape(m map[string]int) []string {
	var out []string
	//lint:allow orderflow fixture: consumer treats the slice as a set and sorts before rendering
	for k := range m {
		out = append(out, k)
	}
	return out
}
