package parlot

import (
	"bytes"
	"testing"

	"difftrace/internal/trace"
)

// FuzzCompressRoundTrip: any symbol stream round-trips exactly.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2, 3})
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		syms := make([]uint32, len(data))
		for i, b := range data {
			syms[i] = uint32(b) * 257 // spread over a wider range
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		for _, s := range syms {
			enc.Encode(s)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := NewDecoder(bytes.NewReader(buf.Bytes())).DecodeAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(syms) {
			t.Fatalf("len %d != %d", len(got), len(syms))
		}
		for i := range got {
			if got[i] != syms[i] {
				t.Fatalf("sym %d: %d != %d", i, got[i], syms[i])
			}
		}
	})
}

// FuzzDecoderRobust: arbitrary bytes never panic the decoder.
func FuzzDecoderRobust(f *testing.F) {
	f.Add([]byte{0x00, 0x05})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = NewDecoder(bytes.NewReader(data)).DecodeAll()
	})
}

// FuzzReadSetBinary: arbitrary bytes never panic the strict binary reader,
// and the lenient reader never returns an error while accounting for every
// event it keeps (set.TotalEvents() == kept + synthesized).
func FuzzReadSetBinary(f *testing.F) {
	s := buildSet("a", "b")
	var buf bytes.Buffer
	if err := WriteSetBinary(&buf, s); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte("PLOT1"))
	// Corrupt seeds: truncations at several depths, flipped bytes in the
	// name table and in a compressed stream, oversized counts.
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-2])
	if len(good) > 8 {
		flipped := append([]byte(nil), good...)
		flipped[6] ^= 0xff // inside the name table
		f.Add(flipped)
		flipped2 := append([]byte(nil), good...)
		flipped2[len(good)-3] ^= 0xff // inside the last stream
		f.Add(flipped2)
	}
	f.Add([]byte("PLOT1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // huge name count
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = ReadSetBinaryContext(nil, bytes.NewReader(data), nil, trace.ReadOptions{})

		set, rep, err := ReadSetBinaryContext(nil, bytes.NewReader(data), nil, trace.ReadOptions{Mode: trace.Lenient})
		if err != nil {
			t.Fatalf("lenient mode returned error: %v", err)
		}
		if got, want := set.TotalEvents(), rep.EventsKept+rep.EventsSynthesized; got != want {
			t.Fatalf("accounting: TotalEvents %d != kept %d + synthesized %d",
				got, rep.EventsKept, rep.EventsSynthesized)
		}
		// Bounded lenient reads must also never error.
		if _, _, err := ReadSetBinaryContext(nil, bytes.NewReader(data), nil, trace.ReadOptions{
			Mode: trace.Lenient, MaxEventsPerTrace: 8, MaxTraces: 4,
		}); err != nil {
			t.Fatalf("bounded lenient mode returned error: %v", err)
		}
	})
}
