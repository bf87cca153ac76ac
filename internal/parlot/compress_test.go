package parlot

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, syms []uint32) []byte {
	t.Helper()
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
	if len(syms) == 0 {
		if len(got) != 0 {
			t.Fatalf("decoded %d symbols from empty stream", len(got))
		}
	} else if !reflect.DeepEqual(got, syms) {
		t.Fatalf("round trip mismatch: got %d syms, want %d", len(got), len(syms))
	}
	return buf.Bytes()
}

func TestRoundTripEmpty(t *testing.T) { roundTrip(t, nil) }

func TestRoundTripSingle(t *testing.T) { roundTrip(t, []uint32{42}) }

func TestRoundTripLoop(t *testing.T) {
	// A tight loop body repeated many times must compress massively.
	body := []uint32{1, 2, 3, 4}
	var syms []uint32
	for i := 0; i < 10000; i++ {
		syms = append(syms, body...)
	}
	data := roundTrip(t, syms)
	ratio := float64(len(syms)*4) / float64(len(data))
	if ratio < 1000 {
		t.Errorf("loopy trace ratio = %.0f, want >= 1000 (ParLOT-like)", ratio)
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	syms := make([]uint32, 5000)
	for i := range syms {
		syms[i] = uint32(rng.Intn(500))
	}
	roundTrip(t, syms)
}

func TestRoundTripAdversarialAliases(t *testing.T) {
	// Symbols engineered to collide in the hash table: correctness must not
	// depend on prediction accuracy.
	var syms []uint32
	for i := 0; i < 3000; i++ {
		syms = append(syms, uint32(i)<<tableBits|uint32(i%3))
	}
	roundTrip(t, syms)
}

func TestIncrementalFlush(t *testing.T) {
	// Flushing mid-stream (crash/deadlock checkpoint) must keep the prefix
	// decodable and the stream appendable.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 0; i < 100; i++ {
		enc.Encode(uint32(i % 5))
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	prefixLen := buf.Len()
	got, err := NewDecoder(bytes.NewReader(buf.Bytes()[:prefixLen])).DecodeAll()
	if err != nil || len(got) != 100 {
		t.Fatalf("prefix decode: %d syms, err=%v", len(got), err)
	}
	for i := 100; i < 200; i++ {
		enc.Encode(uint32(i % 5))
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err = NewDecoder(bytes.NewReader(buf.Bytes())).DecodeAll()
	if err != nil || len(got) != 200 {
		t.Fatalf("appended decode: %d syms, err=%v", len(got), err)
	}
}

func TestEncoderStats(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if enc.Ratio() != 0 {
		t.Error("Ratio before output should be 0")
	}
	for i := 0; i < 1000; i++ {
		enc.Encode(7)
	}
	_ = enc.Flush()
	syms, bytesOut := enc.symbols, buf.Len()
	if syms != 1000 {
		t.Errorf("symbols = %d", syms)
	}
	if bytesOut == 0 || bytesOut > 20 {
		t.Errorf("constant stream encoded to %d bytes", bytesOut)
	}
	if enc.Ratio() < 100 {
		t.Errorf("ratio = %f", enc.Ratio())
	}
}

func TestDecoderCorruptInputs(t *testing.T) {
	cases := [][]byte{
		{0x00},                               // run marker without length
		{0x00, 0x00},                         // zero-length run
		{0x00, 0x05},                         // hit run with empty predictor
		{0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // symbol out of range
	}
	for i, c := range cases {
		_, err := NewDecoder(bytes.NewReader(c)).DecodeAll()
		if err == nil || err == io.EOF {
			t.Errorf("case %d: expected corruption error, got %v", i, err)
		}
	}
}

func TestEncoderWriteErrorPropagates(t *testing.T) {
	enc := NewEncoder(failWriter{})
	enc.Encode(1)
	enc.Encode(2)
	if err := enc.Flush(); err == nil {
		t.Error("expected write error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, io.ErrClosedPipe }

// Property: arbitrary symbol streams round-trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16, loopy bool) bool {
		syms := make([]uint32, 0, len(raw)*4)
		for _, v := range raw {
			syms = append(syms, uint32(v))
			if loopy { // amplify repetition to exercise hit runs
				syms = append(syms, uint32(v), uint32(v), 9)
			}
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		for _, s := range syms {
			enc.Encode(s)
		}
		if enc.Flush() != nil {
			return false
		}
		got, err := NewDecoder(bytes.NewReader(buf.Bytes())).DecodeAll()
		if err != nil {
			return false
		}
		if len(got) != len(syms) {
			return false
		}
		for i := range got {
			if got[i] != syms[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
