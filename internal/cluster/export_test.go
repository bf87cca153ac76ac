package cluster

// BuildCounted is Build that also returns how many steps ran the live-slot
// scan and how many cells row rescans read, for the external tests, whose
// inputs come from the whole pipeline.
func BuildCounted(d [][]float64, m Method) (lk *Linkage, fallbacks, rescanned int, err error) {
	var st stats
	lk, err = build(d, m, &st)
	return lk, st.fallbacks, st.rescanned, err
}
