package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// logLines splits a log buffer into its JSON-decoded objects, failing the
// test on anything that is not exactly one valid UTF-8 JSON object per line.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, raw := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if raw == "" {
			continue
		}
		var m map[string]any
		if !utf8.ValidString(raw) {
			t.Fatalf("log line is not valid UTF-8: %q", raw)
		}
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			t.Fatalf("log line is not valid JSON: %v\n%s", err, raw)
		}
		out = append(out, m)
	}
	return out
}

var tsPrefix = regexp.MustCompile(`^\{"ts":"([^"]*)",`)

// wantLines checks that buf holds exactly len(want) lines, each starting
// with a UTC RFC3339Nano ts field and ending, after it, in the bytes of
// its want entry.
func wantLines(t *testing.T, buf *bytes.Buffer, want []string) {
	t.Helper()
	got := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), buf.String())
	}
	for i, line := range got {
		m := tsPrefix.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d does not start with ts: %s", i, line)
		}
		if _, err := time.Parse(time.RFC3339Nano, m[1]); err != nil || !strings.HasSuffix(m[1], "Z") {
			t.Errorf("line %d: ts %q is not UTC RFC3339Nano (%v)", i, m[1], err)
		}
		if rest := line[len(m[0]):]; rest != want[i] {
			t.Errorf("line %d after ts:\n got %s\nwant %s", i, rest, want[i])
		}
	}
}

// TestLoggerLineShape pins the bytes of a line apart from its timestamp:
// ts, level, msg, then the call's fields in order; scalars render bare and
// an error as its message.
func TestLoggerLineShape(t *testing.T) {
	var buf bytes.Buffer
	NewLogger(&buf, slog.LevelInfo).LogAttrs(context.Background(), slog.LevelInfo, "hello",
		slog.String("s", "v"), slog.Int("i", -3), slog.Int64("i64", 1<<40),
		slog.Uint64("u", math.MaxUint64), slog.Bool("yes", true), slog.Bool("no", false),
		slog.Any("err", errors.New("boom")))
	wantLines(t, &buf, []string{
		`"level":"info","msg":"hello","s":"v","i":-3,"i64":1099511627776,"u":18446744073709551615,"yes":true,"no":false,"err":"boom"}`,
	})
}

// TestLoggerWithChaining: With fields come before the call's fields, chain
// in binding order, and a derived logger leaves its parent unchanged.
func TestLoggerWithChaining(t *testing.T) {
	var buf bytes.Buffer
	ctx := context.Background()
	parent := NewLogger(&buf, slog.LevelInfo)
	l := parent.With(slog.String("trace_id", "t1")).With(slog.String("job", "j1"))
	l.LogAttrs(ctx, slog.LevelInfo, "x", slog.String("k", "v"))
	parent.LogAttrs(ctx, slog.LevelWarn, "parent")
	wantLines(t, &buf, []string{
		`"level":"info","msg":"x","trace_id":"t1","job":"j1","k":"v"}`,
		`"level":"warn","msg":"parent"}`,
	})
}

// TestLoggerErrNil: a nil error renders as null, on a plain logger and
// after With fields.
func TestLoggerErrNil(t *testing.T) {
	var buf bytes.Buffer
	ctx := context.Background()
	l := NewLogger(&buf, slog.LevelInfo)
	l.LogAttrs(ctx, slog.LevelError, "failed", slog.Any("err", error(nil)))
	l.With(slog.String("job", "j1")).LogAttrs(ctx, slog.LevelError, "failed", slog.Any("err", error(nil)))
	wantLines(t, &buf, []string{
		`"level":"error","msg":"failed","err":null}`,
		`"level":"error","msg":"failed","job":"j1","err":null}`,
	})
}

func TestLoggerLevelFiltering(t *testing.T) {
	var buf bytes.Buffer
	ctx := context.Background()
	l := NewLogger(&buf, slog.LevelWarn)
	l.LogAttrs(ctx, slog.LevelInfo, "i")
	l.LogAttrs(ctx, slog.LevelWarn, "w")
	l.LogAttrs(ctx, slog.LevelError, "e")
	ls := logLines(t, &buf)
	if len(ls) != 2 || ls[0]["level"] != "warn" || ls[1]["level"] != "error" {
		t.Fatalf("warn-threshold logger emitted: %v", ls)
	}
	if l.Enabled(ctx, slog.LevelInfo) || !l.Enabled(ctx, slog.LevelWarn) || !l.Enabled(ctx, slog.LevelError) {
		t.Fatal("Enabled disagrees with filtering")
	}
}

// TestLoggerEscaping: quotes, backslashes and control bytes round-trip,
// invalid UTF-8 (a path byte, say) becomes U+FFFD so the line stays valid
// UTF-8, and U+2028 is escaped.
func TestLoggerEscaping(t *testing.T) {
	var buf bytes.Buffer
	nasty := "q\"uote b\\slash\nnl\ttab\rcr\x01ctl ünïcode"
	NewLogger(&buf, slog.LevelInfo).LogAttrs(context.Background(), slog.LevelInfo, nasty,
		slog.String("k\"ey", nasty), slog.String("path", "/tmp/a\xffb"), slog.String("sep", "a\u2028b"))
	ls := logLines(t, &buf)
	if ls[0]["msg"] != nasty || ls[0][`k"ey`] != nasty {
		t.Fatalf("msg or field did not round-trip: %v", ls[0])
	}
	if ls[0]["path"] != "/tmp/a\ufffdb" {
		t.Errorf("invalid UTF-8 rendered as %q", ls[0]["path"])
	}
	if !strings.Contains(buf.String(), `"sep":"a\u2028b"`) {
		t.Errorf("U+2028 not escaped: %s", buf.String())
	}
}

// TestLoggerNilWriterOff: a nil writer gives a logger that writes nothing
// at any level.
func TestLoggerNilWriterOff(t *testing.T) {
	l := NewLogger(nil, slog.LevelInfo)
	ctx := context.Background()
	if l.Enabled(ctx, slog.LevelError) {
		t.Fatal("nil-writer logger enabled at error")
	}
	l.LogAttrs(ctx, slog.LevelError, "e", slog.Any("err", errors.New("x")))
}

// TestLoggerConcurrentNoTearing: writers sharing one sink (parent and
// With-derived loggers) never interleave bytes mid-line.
func TestLoggerConcurrentNoTearing(t *testing.T) {
	// A plain bytes.Buffer is safe here: the handler and its With clones
	// share one mutex, which is exactly the guarantee under test.
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		jl := l.With(slog.Int("g", g))
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				jl.LogAttrs(context.Background(), slog.LevelInfo, "tick", slog.Int("i", i))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := len(logLines(t, &buf)); got != 200 {
		t.Fatalf("got %d intact lines, want 200", got)
	}
}
