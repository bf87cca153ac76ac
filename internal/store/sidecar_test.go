package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestSidecarRoundTrip(t *testing.T) {
	s, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"records":[]}`)
	if err := s.PutSidecar("flight", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetSidecar("flight")
	if err != nil || !ok {
		t.Fatalf("GetSidecar = %v, ok=%v", err, ok)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}

	// Overwrite is allowed — sidecars are operational state, not cache.
	next := []byte(`{"records":[{"job":"x"}]}`)
	if err := s.PutSidecar("flight", next); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = s.GetSidecar("flight")
	if !ok || !bytes.Equal(got, next) {
		t.Fatalf("overwrite not visible: %q", got)
	}

	// Delete makes it absent; deleting an absent sidecar is a no-op.
	for i := 0; i < 2; i++ {
		if err := s.DeleteSidecar("flight"); err != nil {
			t.Fatalf("DeleteSidecar #%d: %v", i+1, err)
		}
	}
	if _, ok, err := s.GetSidecar("flight"); ok || err != nil {
		t.Fatalf("deleted sidecar: ok=%v err=%v", ok, err)
	}
}

func TestSidecarMissing(t *testing.T) {
	s, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetSidecar("absent"); ok || err != nil {
		t.Fatalf("absent sidecar: ok=%v err=%v", ok, err)
	}
}

// TestSidecarCorruptQuarantined: a torn dump must never be served — it
// reads as absent and lands in quarantine/.
func TestSidecarCorruptQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSidecar("flight", []byte("good payload")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "flight"+sidecarExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok, err := s.GetSidecar("flight"); ok || err != nil {
		t.Fatalf("corrupt sidecar served: ok=%v err=%v", ok, err)
	}
	q, err := s.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range q {
		if name == "flight"+sidecarExt {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt sidecar not quarantined; quarantine has %v", q)
	}
	// Absent after quarantine, and a fresh Put works again.
	if _, ok, _ := s.GetSidecar("flight"); ok {
		t.Fatal("quarantined sidecar still readable")
	}
	if err := s.PutSidecar("flight", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestSidecarNameValidation(t *testing.T) {
	s, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a/b", `a\b`, "..", "x..y", "a\x00b"} {
		if err := s.PutSidecar(bad, []byte("p")); err == nil {
			t.Errorf("PutSidecar(%q) accepted", bad)
		}
		if _, _, err := s.GetSidecar(bad); err == nil {
			t.Errorf("GetSidecar(%q) accepted", bad)
		}
		if err := s.DeleteSidecar(bad); err == nil {
			t.Errorf("DeleteSidecar(%q) accepted", bad)
		}
	}
}
