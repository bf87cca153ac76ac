package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestFindDivergenceFlagConflicts: -json needs -find-divergence, and the
// explorer has no report to read in sweep mode.
func TestFindDivergenceFlagConflicts(t *testing.T) {
	normal, faulty := writeBinaryPair(t)
	base := options{normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.noFreq", linkageName: "ward", top: 6}

	o := base
	o.jsonOut = true
	if err := run(&bytes.Buffer{}, o); err == nil || !strings.Contains(err.Error(), "-find-divergence") {
		t.Fatalf("-json alone: err = %v, want mention of -find-divergence", err)
	}
	o = base
	o.findDivergence = true
	o.sweep = "11.mpiall.0K10"
	if err := run(&bytes.Buffer{}, o); err == nil || !strings.Contains(err.Error(), "-sweep") {
		t.Fatalf("-find-divergence -sweep: err = %v, want mention of -sweep", err)
	}
}

// TestFindDivergenceCLIDeterminism: the -find-divergence output is
// byte-identical across worker counts on the same PLOT1 pair, and names the
// injected fault's rank (swapBug hits p5).
func TestFindDivergenceCLIDeterminism(t *testing.T) {
	normal, faulty := writeBinaryPair(t)
	base := options{normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.noFreq", linkageName: "ward",
		top: 6, findDivergence: true}

	var ref bytes.Buffer
	refOpts := base
	refOpts.workers = 1
	if err := run(&ref, refOpts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ref.String(), "divergence explorer") {
		t.Fatalf("missing divergence section:\n%s", ref.String())
	}
	if !strings.Contains(ref.String(), "5.0") {
		t.Fatalf("report does not implicate the faulty rank 5:\n%s", ref.String())
	}
	o := base
	o.workers = 8
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	if out.String() != ref.String() {
		t.Errorf("workers=8 output differs from workers=1:\n--- got ---\n%s--- want ---\n%s",
			out.String(), ref.String())
	}
}

// TestFindDivergenceJSON: -find-divergence -json emits exactly one valid
// JSON document on stdout — no text around it — with both levels present.
func TestFindDivergenceJSON(t *testing.T) {
	normal, faulty := writeBinaryPair(t)
	o := options{normalPath: normal, faultyPath: faulty,
		filterSpec: "11.mpiall.0K10", attrSpec: "sing.noFreq", linkageName: "ward",
		top: 6, findDivergence: true, jsonOut: true}
	var out bytes.Buffer
	if err := run(&out, o); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Threads *struct {
			Objects int `json:"objects"`
			Items   []struct {
				Object string `json:"object"`
				Func   string `json:"func"`
			} `json:"items"`
		} `json:"threads"`
		Processes *struct{} `json:"processes"`
	}
	dec := json.NewDecoder(&out)
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stdout is not a JSON document: %v\n%s", err, out.String())
	}
	if dec.More() {
		t.Fatalf("stdout carries trailing content after the JSON document:\n%s", out.String())
	}
	if doc.Threads == nil || doc.Processes == nil {
		t.Fatalf("JSON document missing levels:\n%s", out.String())
	}
	if doc.Threads.Objects == 0 || len(doc.Threads.Items) == 0 {
		t.Fatalf("JSON thread level empty:\n%s", out.String())
	}
}
