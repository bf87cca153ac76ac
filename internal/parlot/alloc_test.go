//go:build !race

// The allocation assertions are skipped under the race detector, whose
// instrumentation adds allocations (and drops sync.Pool entries) that are
// not the code's own.

package parlot

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// multiRecordPLOT1 builds a PLOT1 file holding one thread, 0.0, written as
// records separate records (the shape periodic ParLOT flushes leave), each
// a loop of calls and returns over two names.
func multiRecordPLOT1(t *testing.T, records int) []byte {
	t.Helper()
	var b bytes.Buffer
	uv := func(v uint64) { b.Write(binary.AppendUvarint(nil, v)) }
	b.WriteString(Magic)
	uv(2)
	for _, name := range []string{"MPI_Send", "compute"} {
		uv(uint64(len(name)))
		b.WriteString(name)
	}
	uv(uint64(records))
	for r := 0; r < records; r++ {
		var comp byteSliceWriter
		enc := NewEncoder(&comp)
		for i := 0; i < 500+r; i++ {
			enc.Encode(0<<1 | 0)
			enc.Encode(1<<1 | 0)
			enc.Encode(1<<1 | 1)
			enc.Encode(0<<1 | 1)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		uv(0) // process
		uv(0) // thread
		b.WriteByte(0)
		uv(uint64(len(comp.b)))
		b.Write(comp.b)
	}
	return b.Bytes()
}

// TestStreamReplayReusesDecoder pins the decoder reuse: replaying a
// multi-record stream resets one pooled Decoder per block instead of
// allocating a 256 KiB predictor table per record, so a full replay costs
// only the SymbolReader itself.
func TestStreamReplayReusesDecoder(t *testing.T) {
	const records = 8
	ss, err := ReadStreamSet(bytes.NewReader(multiRecordPLOT1(t, records)), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := ss.Get(ss.IDs()[0])
	if len(st.blocks) != records {
		t.Fatalf("stream has %d blocks, want %d", len(st.blocks), records)
	}
	events := 0
	replay := func() {
		r := st.Reader()
		for _, _, ok := r.Next(); ok; _, _, ok = r.Next() {
			events++
		}
	}
	replay()
	if want := st.Events(); events != want {
		t.Fatalf("replay yielded %d events, want %d", events, want)
	}
	if avg := testing.AllocsPerRun(50, replay); avg > 1 {
		t.Errorf("%.1f allocs per %d-record replay, want at most 1 (the reader)", avg, records)
	}
}
