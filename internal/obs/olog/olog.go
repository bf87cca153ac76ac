// Package olog is DiffTrace's structured logger: leveled, JSON-lines,
// stdlib-only, and nil-off like the rest of obs — a nil *Logger accepts
// every call without locking, allocating, or reading the clock, so the
// service and CLI instrument unconditionally and a silent run costs
// nothing. (The package is named olog rather than log to avoid shadowing
// the standard library inside its own implementation.)
//
// Each line is one JSON object: {"ts":...,"level":...,"msg":...} followed
// by the logger's bound fields (With) and the call's fields, in that
// order. Bound fields are how the service attaches trace_id and job id
// once per job instead of at every call site.
//
// olog lives under internal/obs so the wallclock lint exemption covers its
// timestamps: log lines are telemetry, never pipeline output, and never
// reach a scrubbed artifact.
package olog

import (
	"io"
	"strconv"
	"sync"
	"time"
)

// Level orders log severities. The zero value is Info so a zero Logger
// config logs everything it is given.
type Level int32

const (
	Info Level = iota
	Warn
	Error
)

// String renders the conventional lowercase name.
func (l Level) String() string {
	switch l {
	case Info:
		return "info"
	case Warn:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a flag value ("info", "warn", "error") to a Level;
// unknown strings report ok=false.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "info":
		return Info, true
	case "warn":
		return Warn, true
	case "error":
		return Error, true
	}
	return Info, false
}

// fieldKind discriminates Field's payload without an interface box.
type fieldKind uint8

const (
	kindStr fieldKind = iota
	kindInt
	kindUint
	kindBool
	kindErr
)

// Field is one key/value pair. It is a small value type (no interface for
// scalars) so a call's ...Field slice can live on the caller's stack and
// the nil-logger path stays allocation-free.
type Field struct {
	key  string
	kind fieldKind
	str  string
	num  int64
	unum uint64
	err  error
}

// Str binds a string value.
func Str(key, value string) Field { return Field{key: key, kind: kindStr, str: value} }

// Int binds an int value.
func Int(key string, value int) Field { return Field{key: key, kind: kindInt, num: int64(value)} }

// Int64 binds an int64 value.
func Int64(key string, value int64) Field { return Field{key: key, kind: kindInt, num: value} }

// Uint64 binds a uint64 value (heap bytes, sequence numbers).
func Uint64(key string, value uint64) Field { return Field{key: key, kind: kindUint, unum: value} }

// Bool binds a bool value.
func Bool(key string, value bool) Field {
	f := Field{key: key, kind: kindBool}
	if value {
		f.num = 1
	}
	return f
}

// Err binds an error under the conventional "err" key. The error is
// stringified at emit time, not at call time, so a nil logger never pays
// for Error() formatting.
func Err(err error) Field { return Field{key: "err", kind: kindErr, err: err} }

// Logger writes JSON lines at or above a minimum level. Nil is off. All
// methods are safe for concurrent use; derived loggers (With) share one
// mutex so interleaved writers never tear lines.
type Logger struct {
	mu   *sync.Mutex
	w    io.Writer
	min  Level
	base []Field
}

// New builds a logger writing to w. A nil writer returns a nil (disabled)
// logger, so "no -log-json flag" and "logging off" are the same state.
func New(w io.Writer, min Level) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{mu: &sync.Mutex{}, w: w, min: min}
}

// With returns a logger that emits the given fields on every line, after
// the parent's bound fields. Use it to attach trace_id and job once per
// request. Nil in, nil out.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil {
		return nil
	}
	base := make([]Field, 0, len(l.base)+len(fields))
	base = append(base, l.base...)
	base = append(base, fields...)
	return &Logger{mu: l.mu, w: l.w, min: l.min, base: base}
}

// Enabled reports whether a line at the given level would be written.
func (l *Logger) Enabled(level Level) bool {
	if l == nil {
		return false
	}
	return level >= l.min
}

// Printf-style sugar is deliberately absent: fields, not format strings.

// Info logs at Info level.
func (l *Logger) Info(msg string, fields ...Field) {
	if l == nil || Info < l.min {
		return
	}
	l.emit(Info, msg, fields)
}

// Warn logs at Warn level.
func (l *Logger) Warn(msg string, fields ...Field) {
	if l == nil || Warn < l.min {
		return
	}
	l.emit(Warn, msg, fields)
}

// Error logs at Error level.
func (l *Logger) Error(msg string, fields ...Field) {
	if l == nil || Error < l.min {
		return
	}
	l.emit(Error, msg, fields)
}

// bufPool recycles line buffers across emits.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

func (l *Logger) emit(level Level, msg string, fields []Field) {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, `{"ts":"`...)
	b = time.Now().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":"`...)
	b = append(b, level.String()...)
	b = append(b, `","msg":`...)
	b = appendJSONString(b, msg)
	for _, f := range l.base {
		b = appendField(b, f)
	}
	for _, f := range fields {
		b = appendField(b, f)
	}
	b = append(b, '}', '\n')
	l.mu.Lock()
	// A failing log sink must never fail the pipeline; the error is dropped.
	l.w.Write(b)
	l.mu.Unlock()
	*bp = b
	bufPool.Put(bp)
}

func appendField(b []byte, f Field) []byte {
	b = append(b, ',')
	b = appendJSONString(b, f.key)
	b = append(b, ':')
	switch f.kind {
	case kindStr:
		b = appendJSONString(b, f.str)
	case kindInt:
		b = strconv.AppendInt(b, f.num, 10)
	case kindUint:
		b = strconv.AppendUint(b, f.unum, 10)
	case kindBool:
		if f.num != 0 {
			b = append(b, "true"...)
		} else {
			b = append(b, "false"...)
		}
	case kindErr:
		if f.err == nil {
			b = append(b, "null"...)
		} else {
			b = appendJSONString(b, f.err.Error())
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString writes s as a JSON string literal. Quotes, backslashes,
// and control bytes are escaped (\u00XX); everything else — including
// non-ASCII UTF-8 — passes through, which json.Unmarshal accepts.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		case c < 0x20:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
