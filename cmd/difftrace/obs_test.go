package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"difftrace/internal/obs"
)

// runManifest drives the full CLI path with -manifest (and optionally
// -metrics) and returns the parsed manifest plus the stderr text.
func runManifest(t *testing.T, normal, faulty string, workers int, metrics bool) (*obs.Manifest, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	var out, errBuf bytes.Buffer
	err := run(&out, options{
		normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.noFreq", linkageName: "ward",
		top: 6, workers: workers,
		manifestPath: path, metrics: metrics, errW: &errBuf,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	return &m, errBuf.String()
}

// TestManifestEndToEnd: a -manifest run emits the full observability record
// — per-stage timings, NLR interning stats, pool utilization, per-level
// counts, and one ingestion entry per input file.
func TestManifestEndToEnd(t *testing.T) {
	normal, faulty := writePair(t)
	m, _ := runManifest(t, normal, faulty, 2, false)

	if m.Tool != "difftrace" || m.WallNs <= 0 {
		t.Errorf("tool/wall = %q/%d", m.Tool, m.WallNs)
	}
	if m.Config["filter"] != "11.mpiall.0K10" || m.Config["workers"] != "2" {
		t.Errorf("config = %v", m.Config)
	}

	stages := map[string]bool{}
	for _, st := range m.Stages {
		if st.WallNs < 0 || st.Count <= 0 {
			t.Errorf("stage %q has count=%d wall=%d", st.Path, st.Count, st.WallNs)
		}
		stages[st.Path] = true
	}
	for _, want := range []string{"ingest", "diffrun", "summarize", "analyze", "analyze/threads/diff"} {
		if !stages[want] {
			t.Errorf("missing stage %q (have %v)", want, m.Stages)
		}
	}

	for _, c := range []string{
		"ingest.bytes", "ingest.events", "nlr.intern.miss", "nlr.intern.hit",
		"core.threads.objects", "core.threads.jsm_cells", "core.processes.attrs",
		"jaccard.cells", "nlr.table.bodies",
	} {
		if m.Counters[c] <= 0 {
			t.Errorf("counter %q = %d, want > 0", c, m.Counters[c])
		}
	}

	sites := map[string]bool{}
	for _, p := range m.Pool {
		sites[p.Site] = true
		if p.Calls <= 0 || p.Items <= 0 {
			t.Errorf("pool site %q stat = %+v", p.Site, p)
		}
	}
	if !sites["core.summarize"] || !sites["jaccard.rows"] {
		t.Errorf("pool sites = %v", sites)
	}

	if len(m.Ingest) != 2 {
		t.Fatalf("ingest entries = %d, want 2 (normal + faulty)", len(m.Ingest))
	}
	if m.Ingest[0].Source != normal || m.Ingest[1].Source != faulty {
		t.Errorf("ingest sources = %q, %q", m.Ingest[0].Source, m.Ingest[1].Source)
	}
	if m.Ingest[0].EventsKept <= 0 {
		t.Errorf("ingest kept = %d", m.Ingest[0].EventsKept)
	}

	if _, ok := m.Histograms["nlr.seq_len"]; !ok {
		t.Errorf("missing nlr.seq_len histogram (have %v)", m.Histograms)
	}
}

// TestManifestGoldenAcrossWorkers: the scrubbed manifest of the full CLI
// path is byte-identical for Workers:1 and Workers:8.
func TestManifestGoldenAcrossWorkers(t *testing.T) {
	normal, faulty := writePair(t)
	golden := func(workers int) []byte {
		m, _ := runManifest(t, normal, faulty, workers, false)
		obs.Scrub(m)
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := golden(1), golden(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("scrubbed CLI manifests differ across worker counts:\n--- w=1 ---\n%s\n--- w=8 ---\n%s", seq, par)
	}
}

// TestMetricsSummary: -metrics writes the human digest to errW.
func TestMetricsSummary(t *testing.T) {
	normal, faulty := writePair(t)
	_, errOut := runManifest(t, normal, faulty, 1, true)
	for _, want := range []string{"== difftrace run:", "stages (", "pool utilization:", "nlr interning:", "counters:"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("metrics summary missing %q:\n%s", want, errOut)
		}
	}
}

// TestManifestSweep: the sweep path aggregates per-combination spans and the
// rank.sweep pool site into the same manifest.
func TestManifestSweep(t *testing.T) {
	normal, faulty := writePair(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	var out bytes.Buffer
	err := run(&out, options{
		normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.noFreq", linkageName: "ward",
		sweep: "11.mpiall.0K10", top: 6, workers: 2,
		manifestPath: path, errW: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Counters["rank.combos"] != 6 {
		t.Errorf("rank.combos = %d, want 6 (one spec × six attr configs)", m.Counters["rank.combos"])
	}
	found := false
	for _, st := range m.Stages {
		if strings.HasPrefix(st.Path, "rank/11.mpiall.0K10/") {
			found = true
		}
	}
	if !found {
		t.Errorf("no per-combination rank spans in %v", m.Stages)
	}
	hasSite := false
	for _, p := range m.Pool {
		if p.Site == "rank.sweep" {
			hasSite = true
		}
	}
	if !hasSite {
		t.Errorf("pool sites = %+v, want rank.sweep", m.Pool)
	}
}

// TestLogJSONLines: with -log-json, stderr holds JSON lines, each valid
// UTF-8 with ts, level, msg, the component and the -trace-id value, from
// "run starting" to "run finished", which says how the run ended: a null
// err at info, or the error's message at error level. A -normal path that
// is not valid UTF-8 (here one that fails to open) still gives valid
// lines, and a run that fails before any input is read (a -pprof address
// that cannot be listened on) still ends on "run finished".
func TestLogJSONLines(t *testing.T) {
	normal, faulty := writePair(t)
	const tid = "feedfacecafebeef"
	for _, tc := range []struct {
		name, normal, pprof string
		wantErr             bool
	}{
		{"run", normal, "", false},
		{"invalid-utf8-path", filepath.Join(t.TempDir(), "n\xff.trace"), "", true},
		{"bad-pprof-address", normal, "no-port", true},
	} {
		var errBuf bytes.Buffer
		err := run(io.Discard, options{
			normalPath: tc.normal, faultyPath: faulty,
			filterSpec: "11.mpiall.0K10", attrSpec: "sing.noFreq", linkageName: "ward",
			top: 6, logJSON: true, traceID: tid, errW: &errBuf, pprofAddr: tc.pprof,
		})
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
		}
		var lines []map[string]any
		for _, raw := range strings.Split(strings.TrimSuffix(errBuf.String(), "\n"), "\n") {
			if !utf8.ValidString(raw) {
				t.Errorf("%s: line is not valid UTF-8: %q", tc.name, raw)
			}
			var m map[string]any
			if err := json.Unmarshal([]byte(raw), &m); err != nil {
				t.Fatalf("%s: line is not JSON: %v\n%s", tc.name, err, raw)
			}
			for _, k := range []string{"ts", "level", "msg"} {
				if _, ok := m[k]; !ok {
					t.Errorf("%s: line lacks %q: %s", tc.name, k, raw)
				}
			}
			if m["component"] != "difftrace" || m["trace_id"] != tid {
				t.Errorf("%s: line lacks component or trace ID: %s", tc.name, raw)
			}
			lines = append(lines, m)
		}
		if len(lines) < 2 || lines[0]["msg"] != "run starting" || lines[len(lines)-1]["msg"] != "run finished" {
			t.Fatalf("%s: lines do not run from start to finish:\n%s", tc.name, errBuf.String())
		}
		if got, want := lines[0]["normal"], strings.ToValidUTF8(tc.normal, "\ufffd"); got != want {
			t.Errorf("%s: normal = %q, want %q", tc.name, got, want)
		}
		last := lines[len(lines)-1]
		got, ok := last["err"]
		switch {
		case !ok:
			t.Errorf("%s: run finished has no err field: %v", tc.name, last)
		case !tc.wantErr && (got != nil || last["level"] != "info"):
			t.Errorf("%s: run finished has err %v at level %v, want null at info", tc.name, got, last["level"])
		case tc.wantErr && (got != strings.ToValidUTF8(err.Error(), "\ufffd") || got == "" || last["level"] != "error"):
			t.Errorf("%s: run finished has err %v at level %v, want %q at error", tc.name, got, last["level"], err)
		}
	}
}
