// Package chaos systematically corrupts well-formed trace files so tests
// can assert graceful degradation: for every operator the lenient readers
// must salvage without error (with a fully-accounted IngestReport), the
// strict readers must reject the damage the operator guarantees, and a
// Resilient core.DiffRun over the salvaged set must still produce a
// ranking. The operators mirror how real HPC trace files break: nodes die
// mid-write (truncation), filesystems flip bits (corruption), collectors
// interleave output (duplicate and garbage headers), and aborted runs
// leave calls forever unclosed.
package chaos

import (
	"bytes"
	"math/rand" //lint:allow wallclock corruption operators take a caller-seeded rng — chaos corpora replay byte-identically from the seed
)

// Operator is one corruption strategy over a serialized trace set.
type Operator struct {
	// Name identifies the operator in test output.
	Name string
	// Binary marks operators over parlot's binary format; all others
	// corrupt the text format.
	Binary bool
	// WantStrictError is set when the strict reader is guaranteed to
	// reject the corrupted payload. Operators without it inflict damage
	// strict mode may legitimately tolerate (cuts that happen to land on
	// a line boundary, flips that stay decodable, format-level noise).
	WantStrictError bool
	// Apply returns a corrupted copy of data. It never mutates data and
	// draws any randomness from rng so corruption is reproducible.
	Apply func(data []byte, rng *rand.Rand) []byte
}

// Text returns the corruption operators for the text trace format.
func Text() []Operator {
	return []Operator{
		{
			Name:            "truncate-mid-token",
			WantStrictError: true,
			Apply: func(data []byte, rng *rand.Rand) []byte {
				// Cut two bytes into the last "call" keyword, leaving a
				// dangling "ca" — a write that died mid-token.
				i := bytes.LastIndex(data, []byte("\ncall "))
				if i < 0 {
					return clone(data)
				}
				return clone(data[:i+3])
			},
		},
		{
			Name:            "flip-line",
			WantStrictError: true,
			Apply: func(data []byte, rng *rand.Rand) []byte {
				// Replace one event line with spaceless garbage.
				return replaceEventLine(data, rng, []byte("@@bitrot@@"))
			},
		},
		{
			Name:            "garbage-header",
			WantStrictError: true,
			Apply: func(data []byte, rng *rand.Rand) []byte {
				return insertAtLineBoundary(data, rng, []byte("# trace x.y\n"))
			},
		},
		{
			Name:            "binary-junk-line",
			WantStrictError: true,
			Apply: func(data []byte, rng *rand.Rand) []byte {
				return insertAtLineBoundary(data, rng, []byte("\x00\xff\x07\x1f junk\n"))
			},
		},
		{
			Name: "duplicate-header",
			Apply: func(data []byte, rng *rand.Rand) []byte {
				// Re-emitting an existing header re-opens that trace:
				// valid input (collectors interleave), not corruption.
				end := bytes.IndexByte(data, '\n')
				if end < 0 || !bytes.HasPrefix(data, []byte("# trace ")) {
					return clone(data)
				}
				return append(clone(data), data[:end+1]...)
			},
		},
		{
			Name: "orphan-ret",
			Apply: func(data []byte, rng *rand.Rand) []byte {
				// A ret with no open call directly after the first header;
				// strict mode tolerates it (historical format tolerance),
				// lenient mode drops and records it.
				return insertAfterFirstHeader(data, []byte("ret __nosuch\n"))
			},
		},
		{
			Name: "long-name",
			Apply: func(data []byte, rng *rand.Rand) []byte {
				// A 64 KiB function name: within the default line bound,
				// over any reasonable configured one.
				line := append([]byte("call "), bytes.Repeat([]byte("x"), 64<<10)...)
				return insertAfterFirstHeader(data, append(line, '\n'))
			},
		},
		{
			Name: "whitespace-noise",
			Apply: func(data []byte, rng *rand.Rand) []byte {
				noisy := insertAtLineBoundary(data, rng, []byte("\n   \n\t\n"))
				return bytes.ReplaceAll(noisy, []byte("\ncall "), []byte("\n  call "))
			},
		},
		{
			Name: "unclosed-calls",
			Apply: func(data []byte, rng *rand.Rand) []byte {
				// A trace whose calls never return: what an aborted run
				// legitimately leaves behind.
				return append(clone(data), "# trace 63.9\ncall ghost_a\ncall ghost_b\n"...)
			},
		},
		{
			Name: "truncate-half",
			// The cut can land mid-name ("call mai" is a valid event), so
			// strict acceptance depends on luck — only lenient behaviour
			// is guaranteed.
			Apply: func(data []byte, rng *rand.Rand) []byte {
				return clone(data[:len(data)/2])
			},
		},
	}
}

// Binary returns the corruption operators for parlot's binary format.
func Binary() []Operator {
	return []Operator{
		{
			Name:            "bin-truncate-half",
			Binary:          true,
			WantStrictError: true,
			Apply: func(data []byte, rng *rand.Rand) []byte {
				return clone(data[:len(data)/2])
			},
		},
		{
			Name:   "bin-flip-byte",
			Binary: true,
			Apply: func(data []byte, rng *rand.Rand) []byte {
				out := clone(data)
				if len(out) > 6 {
					out[6+rng.Intn(len(out)-6)] ^= 0xff
				}
				return out
			},
		},
		{
			Name:   "bin-append-garbage",
			Binary: true,
			Apply: func(data []byte, rng *rand.Rand) []byte {
				out := clone(data)
				junk := make([]byte, 64)
				rng.Read(junk)
				return append(out, junk...)
			},
		},
	}
}

// All returns every operator, text then binary.
func All() []Operator {
	return append(Text(), Binary()...)
}

func clone(b []byte) []byte {
	return append([]byte(nil), b...)
}

// lineStarts returns the offset of every line start in data.
func lineStarts(data []byte) []int {
	starts := []int{0}
	for i, c := range data {
		if c == '\n' && i+1 < len(data) {
			starts = append(starts, i+1)
		}
	}
	return starts
}

// insertAtLineBoundary splices ins at a random line start.
func insertAtLineBoundary(data []byte, rng *rand.Rand, ins []byte) []byte {
	starts := lineStarts(data)
	at := starts[rng.Intn(len(starts))]
	out := clone(data[:at])
	out = append(out, ins...)
	return append(out, data[at:]...)
}

// insertAfterFirstHeader splices ins directly after the first header line.
func insertAfterFirstHeader(data []byte, ins []byte) []byte {
	end := bytes.IndexByte(data, '\n')
	if end < 0 {
		return clone(data)
	}
	out := clone(data[:end+1])
	out = append(out, ins...)
	return append(out, data[end+1:]...)
}

// replaceEventLine overwrites one randomly chosen "call"/"ret" line.
func replaceEventLine(data []byte, rng *rand.Rand, with []byte) []byte {
	starts := lineStarts(data)
	var events []int
	for _, at := range starts {
		rest := data[at:]
		if bytes.HasPrefix(rest, []byte("call ")) || bytes.HasPrefix(rest, []byte("ret ")) {
			events = append(events, at)
		}
	}
	if len(events) == 0 {
		return clone(data)
	}
	at := events[rng.Intn(len(events))]
	end := at + bytes.IndexByte(data[at:], '\n')
	if end < at {
		end = len(data)
	}
	out := clone(data[:at])
	out = append(out, with...)
	return append(out, data[end:]...)
}
