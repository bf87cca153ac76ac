package helper

import "sort"

// Keys returns m's keys in iteration order. The index-assignment shape
// neither appends nor writes inside the range, so nothing is flagged here —
// the hazard shows only where a caller sinks the return.
func Keys(m map[string]int) []string {
	out := make([]string, len(m))
	i := 0
	for k := range m {
		out[i] = k
		i++
	}
	return out
}

// SortedKeys is the canonical-order variant.
func SortedKeys(m map[string]int) []string {
	ks := Keys(m)
	sort.Strings(ks)
	return ks
}
