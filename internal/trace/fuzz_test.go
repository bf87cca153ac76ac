package trace

import (
	"strings"
	"testing"
)

// corruptSeeds is the shared corpus of damaged inputs: truncated mid-event,
// interleaved and duplicated headers, ret without call, non-UTF-8 names,
// garbage headers, orphan markers, binary junk.
var corruptSeeds = []string{
	"# trace 0.0\ncall main\nret main\ntruncated\n",
	"call orphan\n",
	"",
	"# trace 0.0\ncall main\nca", // truncated mid-event
	"# trace 0.0\ncall main\n# trace 0.0\ncall main\n",               // duplicated header
	"# trace 0.0\ncall a\n# trace 1.0\ncall b\n# trace 0.0\nret a\n", // interleaved
	"# trace 0.0\nret NoSuchCall\n",                                  // ret without call
	"# trace 0.0\ncall \xff\xfe\x00name\n",                           // non-UTF-8 name
	"# trace 99999999999999999999.0\ncall main\n",                    // overflowing header
	"# trace x.y\ncall ghost\n# trace 1.0\ncall ok\n",                // garbage header
	"truncated\ntruncated\n# trace 0.0\ntruncated\n",                 // orphan markers
	"# trace 0.0\n\x00\x01\x02\x03\n",                                // binary junk line
	"# trace 0.0\njump main\nwalk back\n",                            // unknown kinds
	"# trace 0.0\ncall a\ncall b\ncall c\n",                          // unclosed calls
	"# trace 0.0\r\ncall main\r\nret main\r\n",                       // CRLF endings
}

// FuzzReadSetText: arbitrary text never panics the strict parser, and the
// lenient parser never returns an error and always accounts for every
// event: set.TotalEvents() == kept + synthesized.
func FuzzReadSetText(f *testing.F) {
	for _, s := range corruptSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		_, _ = ReadSetText(strings.NewReader(input), nil)

		set, rep, err := ReadSetTextContext(nil, strings.NewReader(input), nil, ReadOptions{Mode: Lenient})
		if err != nil {
			t.Fatalf("lenient mode returned error: %v", err)
		}
		if got, want := set.TotalEvents(), rep.EventsKept+rep.EventsSynthesized; got != want {
			t.Fatalf("accounting: TotalEvents %d != kept %d + synthesized %d",
				got, rep.EventsKept, rep.EventsSynthesized)
		}
		// Bounded lenient reads must also never error.
		set, rep, err = ReadSetTextContext(nil, strings.NewReader(input), nil, ReadOptions{
			Mode: Lenient, MaxLineBytes: 64, MaxEventsPerTrace: 8, MaxTraces: 4,
		})
		if err != nil {
			t.Fatalf("bounded lenient mode returned error: %v", err)
		}
		if got, want := set.TotalEvents(), rep.EventsKept+rep.EventsSynthesized; got != want {
			t.Fatalf("bounded accounting: %d != %d", got, want)
		}
	})
}

// FuzzLenientRereadStable: a lenient parse's textual re-serialization parses
// strictly — salvage output is always well-formed.
func FuzzLenientRereadStable(f *testing.F) {
	for _, s := range corruptSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		set, _, err := ReadSetTextContext(nil, strings.NewReader(input), nil, ReadOptions{Mode: Lenient})
		if err != nil {
			t.Fatalf("lenient: %v", err)
		}
		var b strings.Builder
		if err := WriteSetText(&b, set); err != nil {
			t.Fatalf("write: %v", err)
		}
		reread, err := ReadSetText(strings.NewReader(b.String()), nil)
		if err != nil {
			t.Fatalf("salvaged output failed strict re-parse: %v", err)
		}
		if reread.TotalEvents() != set.TotalEvents() {
			t.Fatalf("re-read events %d != %d", reread.TotalEvents(), set.TotalEvents())
		}
	})
}
