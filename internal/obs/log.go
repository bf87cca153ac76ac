package obs

import (
	"io"
	"log/slog"
	"strings"
	"time"
)

// NewLogger returns the structured logger difftrace and difftraced write
// with: log/slog's JSON handler, one object per line,
//
//	{"ts":"<UTC RFC3339Nano>","level":"info","msg":...}
//
// followed by the logger's With fields and then the call's fields. A nil
// writer gives a disabled logger, so "no -log-json" and "logging off" are
// one state. Call sites use LogAttrs, which allocates nothing below the
// level threshold. Log lines are telemetry: they never reach a report or a
// scrubbed manifest.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	if w == nil {
		return disabledLogger
	}
	return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level, ReplaceAttr: lineShape}))
}

// disabledLogger drops every line: its threshold is above the highest
// level any call site uses.
var disabledLogger = slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))

// lineShape renames the record's time to "ts" in UTC and lowercases its
// level ("info", "warn", "error").
func lineShape(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch a.Key {
	case slog.TimeKey:
		if a.Value.Kind() == slog.KindTime {
			return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
		}
	case slog.LevelKey:
		if lv, ok := a.Value.Any().(slog.Level); ok {
			return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
		}
	}
	return a
}
