package obs_test

import (
	"runtime"
	"testing"
	"time"

	"difftrace/internal/obs"
)

// TestHeapSamplerObservesAllocation: the sampler's peak moves when the
// heap grows under it, and the nil receiver follows the obs nil-off
// contract.
func TestHeapSamplerObservesAllocation(t *testing.T) {
	s := obs.StartHeapSamplerInto(time.Millisecond, nil)
	base := s.Peak()
	if base == 0 {
		t.Fatal("no initial sample")
	}
	big := make([]byte, 32<<20)
	for i := range big {
		big[i] = byte(i)
	}
	// The final synchronous sample in Stop sees the allocation even if the
	// ticker never fired.
	peak := s.Stop()
	runtime.KeepAlive(big)
	if peak < base+(16<<20) {
		t.Errorf("peak %d did not register a 32MiB allocation over base %d", peak, base)
	}

	var nilS *obs.HeapSampler
	if nilS.Peak() != 0 || nilS.Stop() != 0 {
		t.Error("nil sampler must report zero")
	}
}
