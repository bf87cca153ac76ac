package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"difftrace/internal/parlot"
	"difftrace/internal/trace"
)

// writeBinaryPair converts the checked-in ILCS fixture pair to PLOT1.
func writeBinaryPair(t *testing.T, dir string) (normal, faulty string) {
	t.Helper()
	textNormal, textFaulty := fixturePair(t)
	conv := func(src, name string) string {
		f, err := os.Open(src)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		set, err := trace.ReadSetText(f, trace.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := parlot.WriteSetBinary(&buf, set); err != nil {
			t.Fatal(err)
		}
		dst := filepath.Join(dir, name)
		if err := os.WriteFile(dst, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	return conv(textNormal, "normal.bin"), conv(textFaulty, "faulty.bin")
}

// TestServiceEncodingDeterminism: the same pair of executions submitted as
// text files, as PLOT1 files and as a mixed pair yields byte-identical
// stored reports, on services with different worker budgets. Each input
// format decides how its side is read — a PLOT1 side stays compressed,
// which the compressed reader marks in the job's manifest.
func TestServiceEncodingDeterminism(t *testing.T) {
	textNormal, textFaulty := fixturePair(t)
	plotNormal, plotFaulty := writeBinaryPair(t, t.TempDir())
	pairs := []struct {
		name           string
		normal, faulty string
		workers        int
		streamSets     string // the parlot.stream_sets counter line, "" if absent
	}{
		{"text", textNormal, textFaulty, 1, ""},
		{"plot1", plotNormal, plotFaulty, 8, `"parlot.stream_sets": 2`},
		{"mixed", textNormal, plotFaulty, 2, `"parlot.stream_sets": 1`},
	}
	var ref []byte
	for _, p := range pairs {
		svc := newTestService(t, Config{Workers: p.workers})
		v, err := svc.Submit(DiffRequest{Normal: p.normal, Faulty: p.faulty})
		if err != nil {
			t.Fatal(err)
		}
		if v = waitState(t, svc, v.ID); v.State != StateDone {
			t.Fatalf("%s: job failed: %s", p.name, v.Error)
		}
		report, manifest, ok := svc.Artifacts(v.ID)
		if !ok {
			t.Fatalf("%s: artifacts missing", p.name)
		}
		if got := strings.Contains(string(manifest), "parlot.stream_sets"); got != (p.streamSets != "") ||
			(got && !strings.Contains(string(manifest), p.streamSets)) {
			t.Errorf("%s: manifest marks compressed sides wrongly, want %q:\n%s", p.name, p.streamSets, manifest)
		}
		if ref == nil {
			if len(report) == 0 {
				t.Fatal("empty report")
			}
			ref = report
			continue
		}
		if !bytes.Equal(report, ref) {
			t.Errorf("%s report differs from %s:\n--- %s ---\n%s\n--- %s ---\n%s",
				p.name, pairs[0].name, pairs[0].name, ref, p.name, report)
		}
	}
}

// TestHTTPRetiredStreamingFieldAccepted: a submission that still carries
// the retired "streaming" field (once the opt-in to compressed analysis,
// which the input format now decides) is accepted and served.
func TestHTTPRetiredStreamingFieldAccepted(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	normal, faulty := writeBinaryPair(t, t.TempDir())

	body, err := json.Marshal(map[string]any{"normal": normal, "faulty": faulty, "streaming": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/diff", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d, want 202", resp.StatusCode)
	}
	var jr JobView
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if done := waitJobHTTP(t, ts, jr.ID); done.State != StateDone || !strings.Contains(done.Report, "DiffTrace report") {
		t.Fatalf("job not served: state %s, error %q", done.State, done.Error)
	}
}
