package olog

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// lines splits a log buffer into its JSON-decoded objects, failing the
// test on anything that is not exactly one JSON object per line.
func lines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, raw := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if raw == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatalf("log line is not valid JSON: %v\n%s", err, raw)
		}
		out = append(out, m)
	}
	return out
}

func TestLineShape(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Info)
	l.Info("hello",
		Str("s", "v"), Int("i", -3), Int64("i64", 1<<40),
		Uint64("u", 18446744073709551615), Bool("yes", true), Bool("no", false),
		Err(errors.New("boom")))

	ls := lines(t, &buf)
	if len(ls) != 1 {
		t.Fatalf("got %d lines, want 1", len(ls))
	}
	m := ls[0]
	if m["level"] != "info" || m["msg"] != "hello" {
		t.Fatalf("level/msg wrong: %v", m)
	}
	ts, _ := m["ts"].(string)
	if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Fatalf("ts %q not RFC3339Nano: %v", ts, err)
	}
	if !strings.HasSuffix(ts, "Z") {
		t.Fatalf("ts %q not UTC", ts)
	}
	if m["s"] != "v" || m["i"] != float64(-3) || m["i64"] != float64(1<<40) {
		t.Fatalf("scalar fields wrong: %v", m)
	}
	if m["yes"] != true || m["no"] != false || m["err"] != "boom" {
		t.Fatalf("bool/err fields wrong: %v", m)
	}
	// uint64 max overflows float64 exactly-representable range; re-decode
	// the raw line with UseNumber to check it textually.
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	dec.UseNumber()
	var nm map[string]any
	if err := dec.Decode(&nm); err != nil {
		t.Fatal(err)
	}
	if got := nm["u"].(json.Number).String(); got != "18446744073709551615" {
		t.Fatalf("uint64 field = %s", got)
	}
}

func TestLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Warn)
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	ls := lines(t, &buf)
	if len(ls) != 2 || ls[0]["level"] != "warn" || ls[1]["level"] != "error" {
		t.Fatalf("Warn-min logger emitted: %v", ls)
	}
	if l.Enabled(Info) || !l.Enabled(Warn) || !l.Enabled(Error) {
		t.Fatal("Enabled disagrees with filtering")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"info": Info, "warn": Warn, "error": Error} {
		got, ok := ParseLevel(s)
		if !ok || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseLevel("debug"); ok {
		t.Error("ParseLevel accepted unknown level")
	}
	if Info.String() != "info" || Error.String() != "error" || Level(99).String() != "error" {
		t.Error("Level.String wrong")
	}
}

// TestWithChaining: bound fields come before call fields, chain in order,
// and derived loggers do not mutate the parent.
func TestWithChaining(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Info)
	jl := l.With(Str("trace_id", "t1")).With(Str("job", "j1"))
	jl.Info("x", Str("k", "v"))
	l.Info("parent")

	ls := lines(t, &buf)
	if len(ls) != 2 {
		t.Fatalf("got %d lines", len(ls))
	}
	if ls[0]["trace_id"] != "t1" || ls[0]["job"] != "j1" || ls[0]["k"] != "v" {
		t.Fatalf("bound fields missing: %v", ls[0])
	}
	if _, leaked := ls[1]["trace_id"]; leaked {
		t.Fatalf("With mutated parent logger: %v", ls[1])
	}
	// Field order on the raw line: bound before call fields.
	raw := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Index(raw, `"trace_id"`) > strings.Index(raw, `"k"`) {
		t.Fatalf("bound field after call field: %s", raw)
	}
}

func TestEscaping(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, Info)
	nasty := "q\"uote b\\slash\nnl\ttab\rcr\x01ctl ünïcode"
	l.Info(nasty, Str("k\"ey", nasty))
	ls := lines(t, &buf)
	if ls[0]["msg"] != nasty {
		t.Fatalf("msg did not round-trip: %q", ls[0]["msg"])
	}
	if ls[0][`k"ey`] != nasty {
		t.Fatalf("field key/value did not round-trip: %v", ls[0])
	}
}

func TestErrNil(t *testing.T) {
	var buf bytes.Buffer
	New(&buf, Info).Info("x", Err(nil))
	if ls := lines(t, &buf); ls[0]["err"] != nil {
		t.Fatalf("Err(nil) = %v, want null", ls[0]["err"])
	}
}

// TestNilOff: every method on a nil logger is a no-op, and New(nil) is the
// same state as nil.
func TestNilOff(t *testing.T) {
	var l *Logger
	l.Info("i", Str("k", "v"))
	l.Warn("w")
	l.Error("e", Err(errors.New("x")))
	if l.With(Str("a", "b")) != nil {
		t.Fatal("nil.With != nil")
	}
	if l.Enabled(Error) {
		t.Fatal("nil logger Enabled")
	}
	if New(nil, Info) != nil {
		t.Fatal("New(nil) returned a live logger")
	}
}

// TestConcurrentNoTearing: writers sharing one sink (parent + With-derived)
// never interleave bytes mid-line.
func TestConcurrentNoTearing(t *testing.T) {
	// A plain bytes.Buffer is safe here: all writers share the logger's
	// mutex, which is exactly the no-tearing guarantee under test.
	var buf bytes.Buffer
	l := New(&buf, Info)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		jl := l.With(Int("g", g))
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				jl.Info("tick", Int("i", i))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := len(lines(t, &buf)); got != 200 {
		t.Fatalf("got %d intact lines, want 200", got)
	}
}
