package otf_test

import (
	"fmt"

	"difftrace/internal/otf"
)

// Logical clocks order a send before its receive; unrelated events stay
// concurrent.
func ExampleHappensBefore() {
	log := otf.NewLog(3)
	send := log.RecordComm(0, "MPI_Send", 1)
	recv := log.RecordComm(1, "MPI_Recv", 0, send)
	other := log.RecordComm(2, "compute", -1)

	evs := log.Events()
	s, r, o := evs[send], evs[recv], evs[other]
	fmt.Println(otf.HappensBefore(s, r))
	fmt.Println(!otf.HappensBefore(s, o) && !otf.HappensBefore(o, s))
	// Output:
	// true
	// true
}
