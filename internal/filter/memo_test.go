package filter

import (
	"sync"
	"testing"

	"difftrace/internal/trace"
)

// TestMemoMatchesKeepName: the memo is an exact cache of KeepName over the
// registry, including under concurrent first-touch from many goroutines.
func TestMemoMatchesKeepName(t *testing.T) {
	reg := trace.NewRegistry()
	names := []string{
		"MPI_Send", "MPI_Recv", "memcpy", "compute", "strcpy",
		"socket_open", "poll_wait", "GOMP_critical_start", "foo@plt", ".plt",
	}
	ids := make([]uint32, len(names))
	for i, n := range names {
		ids[i] = reg.ID(n)
	}
	for _, f := range []*Filter{
		Everything(),
		New(MPIAll),
		New(Memory, Strings),
		{DropPLT: true, K: 10},
	} {
		m := f.Memo(reg)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					for i, fn := range ids {
						if got, want := m.Keep(fn), f.KeepName(names[i]); got != want {
							t.Errorf("filter %s: Keep(%q) = %v, want %v", f, names[i], got, want)
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// A function interned after the Memo was made is decided by name, exactly
// as KeepName decides it.
func TestMemoLateFunction(t *testing.T) {
	reg := trace.NewRegistry()
	reg.ID("MPI_Send")
	f := New(MPIAll)
	m := f.Memo(reg)
	for _, name := range []string{"MPI_Recv", "compute"} {
		fn := reg.ID(name)
		if got, want := m.Keep(fn), f.KeepName(name); got != want {
			t.Errorf("Keep(%q) interned late = %v, want %v", name, got, want)
		}
	}
}
