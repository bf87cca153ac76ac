package core

import (
	"bytes"
	"strings"
	"testing"

	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// TestReadSourcePicksReader pins the one reader choice in the module:
// parlot's binary format stays compressed, everything else (input shorter
// than the magic included) goes to the text reader.
func TestReadSourcePicksReader(t *testing.T) {
	set := collect(t, 4, trace.NewRegistry(), nil)
	var bin, text bytes.Buffer
	if err := parlot.WriteSetBinary(&bin, set); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteSetText(&text, set); err != nil {
		t.Fatal(err)
	}
	short := parlot.Magic[:len(parlot.Magic)-1]
	cases := []struct {
		name   string
		in     string
		mode   trace.ReadMode
		stream bool
	}{
		{"binary", bin.String(), trace.Strict, true},
		{"text", text.String(), trace.Strict, false},
		{"empty", "", trace.Strict, false},
		{"shorter than the magic", short, trace.Lenient, false},
	}
	for _, c := range cases {
		src, rep, err := ReadSource(nil, strings.NewReader(c.in), trace.NewRegistry(), trace.ReadOptions{Mode: c.mode})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep == nil {
			t.Fatalf("%s: nil IngestReport", c.name)
		}
		switch s := src.(type) {
		case *parlot.StreamSet:
			if !c.stream {
				t.Errorf("%s: read as a compressed set", c.name)
			}
			if s.TotalEvents() != set.TotalEvents() {
				t.Errorf("%s: %d events, want %d", c.name, s.TotalEvents(), set.TotalEvents())
			}
		case *trace.TraceSet:
			if c.stream {
				t.Errorf("%s: read by the text reader", c.name)
			}
		default:
			t.Errorf("%s: unexpected source type %T", c.name, src)
		}
	}
	// A strict read of the short input fails in the text reader, and the
	// failed read hands back no source.
	src, _, err := ReadSource(nil, strings.NewReader(short), nil, trace.ReadOptions{})
	if err == nil || strings.HasPrefix(err.Error(), "parlot:") || src != nil {
		t.Errorf("strict short input: source %v, err %v; want a text-reader error and no source", src, err)
	}
}
