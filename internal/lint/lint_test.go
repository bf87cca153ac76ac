package lint

import (
	"strings"
	"testing"
)

func TestAppliesTables(t *testing.T) {
	r := NewRunner(nil, &Config{
		Exempt: map[string][]string{"wallclock": {"internal/obs", "internal/pool"}},
		Only:   map[string][]string{"nilreceiver": {"internal/obs"}},
	}, "/m")
	cases := []struct {
		check, rel string
		want       bool
	}{
		{"wallclock", "internal/obs", false},
		{"wallclock", "internal/obs/sub", false},
		{"wallclock", "internal/obscure", true}, // prefix match is per path element
		{"wallclock", "internal/core", true},
		{"nilreceiver", "internal/obs", true},
		{"nilreceiver", "internal/core", false},
		{"orderflow", "anything", true}, // absent from both tables: runs everywhere
	}
	for _, c := range cases {
		if got := r.applies(c.check, c.rel); got != c.want {
			t.Errorf("applies(%s, %s) = %v, want %v", c.check, c.rel, got, c.want)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{File: "internal/core/run.go", Line: 42, Col: 3, Check: "orderflow", Message: "boom"}
	if got, want := d.String(), "internal/core/run.go:42: [orderflow] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSuppressLineCoverage(t *testing.T) {
	check := &Check{Name: "c", Doc: "d"}
	r := NewRunner([]*Check{check}, nil, "/m")
	allow := &allowDirective{file: "f.go", line: 10, check: "c", reason: "why"}
	diags := []Diagnostic{
		{File: "f.go", Line: 10, Check: "c", Message: "same line"},
		{File: "f.go", Line: 11, Check: "c", Message: "line below"},
		{File: "f.go", Line: 12, Check: "c", Message: "out of range"},
		{File: "g.go", Line: 10, Check: "c", Message: "other file"},
	}
	kept := r.suppress(diags, []*allowDirective{allow})
	var msgs []string
	for _, d := range kept {
		msgs = append(msgs, d.Message)
	}
	if got := strings.Join(msgs, "|"); got != "out of range|other file" {
		t.Errorf("suppress kept %q", got)
	}
}

func TestSuppressHygiene(t *testing.T) {
	check := &Check{Name: "c", Doc: "d"}
	r := NewRunner([]*Check{check}, nil, "/m")
	noReason := &allowDirective{file: "f.go", line: 1, check: "c"}
	unknown := &allowDirective{file: "f.go", line: 2, check: "mystery", used: true}
	stale := &allowDirective{file: "f.go", line: 3, check: "c", reason: "why"}
	kept := r.suppress([]Diagnostic{{File: "f.go", Line: 1, Check: "c", Message: "v"}},
		[]*allowDirective{noReason, unknown, stale})
	// The reasonless directive must NOT suppress, and all three directives
	// must surface as baddirective findings.
	var badMsgs, checkMsgs int
	for _, d := range kept {
		switch d.Check {
		case BadDirective:
			badMsgs++
		case "c":
			checkMsgs++
		}
	}
	if checkMsgs != 1 {
		t.Errorf("reasonless directive suppressed the diagnostic (kept=%v)", kept)
	}
	if badMsgs != 3 {
		t.Errorf("want 3 baddirective findings (missing reason, unknown check, stale), got %d: %v", badMsgs, kept)
	}
}
