package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"difftrace/internal/resilience"
)

func openClean(t *testing.T) *Store {
	t.Helper()
	s, rep, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store not clean: %s", rep.Summary())
	}
	return s
}

func TestKeyAndPairKey(t *testing.T) {
	if Key([]byte("hello")) != Key([]byte("hello")) {
		t.Fatal("Key not deterministic")
	}
	if Key([]byte("hello")) == Key([]byte("hellp")) {
		t.Fatal("Key collided on distinct input")
	}
	if len(Key(nil)) != 64 {
		t.Fatalf("Key length = %d, want 64 hex chars", len(Key(nil)))
	}
	// Length prefixing: concatenation-equal part lists must not collide.
	if PairKey("ab", "c") == PairKey("a", "bc") {
		t.Fatal("PairKey collided across part boundaries")
	}
	if PairKey("x", "y") != PairKey("x", "y") {
		t.Fatal("PairKey not deterministic")
	}
}

func TestPutGetRoundtrip(t *testing.T) {
	s := openClean(t)
	key := Key([]byte("trace-bytes"))
	payload := []byte("rendered report\nwith lines\n")
	if err := s.Put(key, "report", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key, "report", nil)
	if err != nil || !ok {
		t.Fatalf("Get = ok:%v err:%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	if !s.Has(key, "report") {
		t.Fatal("Has = false after Put")
	}
	if s.Has(key, "manifest") {
		t.Fatal("Has = true for never-written kind")
	}
	if _, ok, _ := s.Get(key, "manifest", nil); ok {
		t.Fatal("Get hit on never-written kind")
	}
	// Empty payloads are valid artifacts.
	if err := s.Put(key, "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, ok, err = s.Get(key, "empty", nil)
	if err != nil || !ok || len(got) != 0 {
		t.Fatalf("empty artifact roundtrip: %q ok:%v err:%v", got, ok, err)
	}
}

func TestPutOverwriteIsIdempotent(t *testing.T) {
	s := openClean(t)
	for i := 0; i < 3; i++ {
		if err := s.Put("k", "report", []byte("same")); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := s.Get("k", "report", nil)
	if err != nil || !ok || string(got) != "same" {
		t.Fatalf("after re-puts: %q ok:%v err:%v", got, ok, err)
	}
}

// corruptArtifact flips one payload byte of an on-disk artifact.
func corruptArtifact(t *testing.T, s *Store, key, kind string) string {
	t.Helper()
	name := fileName(key, kind)
	path := filepath.Join(s.objectsDir(), name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return name
}

func TestGetQuarantinesCorruptArtifact(t *testing.T) {
	s := openClean(t)
	if err := s.Put("k", "report", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	name := corruptArtifact(t, s, "k", "report")

	rep := resilience.NewIngestReport(true)
	got, ok, err := s.Get("k", "report", rep)
	if err != nil {
		t.Fatal(err)
	}
	if ok || got != nil {
		t.Fatalf("corrupt artifact was served: %q", got)
	}
	if rep.Quarantined() != 1 {
		t.Fatalf("Quarantined() = %d, want 1", rep.Quarantined())
	}
	rec := rep.Record(name)
	if rec == nil || rec.Reasons[resilience.CorruptStream] == 0 {
		t.Fatalf("quarantine reason not corrupt-stream: %+v", rec)
	}
	q, err := s.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0] != name {
		t.Fatalf("quarantine dir = %v, want [%s]", q, name)
	}
	// The miss is recoverable: a fresh Put re-materializes the artifact.
	if err := s.Put("k", "report", []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("k", "report", nil); !ok {
		t.Fatal("re-put after quarantine still missing")
	}
}

func TestOpenRecoveryScan(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("good", "report", []byte("intact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("cut", "report", []byte("will be truncated")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("flip", "report", []byte("will be corrupted")); err != nil {
		t.Fatal(err)
	}
	// Truncate one artifact mid-payload (simulated torn write).
	cutPath := filepath.Join(s.objectsDir(), fileName("cut", "report"))
	raw, err := os.ReadFile(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cutPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	corruptArtifact(t, s, "flip", "report")
	// Leave a stale temp file (simulated crash between write and rename).
	if err := os.WriteFile(filepath.Join(s.tmpDir(), "put-stale"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("recovery over damaged store reported clean")
	}
	if rep.Quarantined() != 2 {
		t.Fatalf("Quarantined() = %d, want 2\n%s", rep.Quarantined(), rep.Render())
	}
	cutRec := rep.Record(fileName("cut", "report"))
	if cutRec == nil || cutRec.Reasons[resilience.TruncatedStream] == 0 {
		t.Errorf("truncated artifact reason: %+v", cutRec)
	}
	flipRec := rep.Record(fileName("flip", "report"))
	if flipRec == nil || flipRec.Reasons[resilience.CorruptStream] == 0 {
		t.Errorf("corrupt artifact reason: %+v", flipRec)
	}
	if rep.EventsKept != 1 {
		t.Errorf("EventsKept = %d, want 1 (the intact artifact)", rep.EventsKept)
	}
	// The intact artifact survived, damaged ones read as misses.
	if _, ok, _ := s2.Get("good", "report", nil); !ok {
		t.Error("intact artifact lost by recovery")
	}
	if _, ok, _ := s2.Get("cut", "report", nil); ok {
		t.Error("truncated artifact served after recovery")
	}
	if _, ok, _ := s2.Get("flip", "report", nil); ok {
		t.Error("corrupt artifact served after recovery")
	}
	// Stale temp cleaned.
	tmps, err := os.ReadDir(s2.tmpDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("stale temp files survived recovery: %d", len(tmps))
	}
	q, err := s2.Quarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 2 {
		t.Errorf("quarantine dir has %d files, want 2: %v", len(q), q)
	}
}

func TestOpenLeavesForeignFilesAlone(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	foreign := filepath.Join(s.objectsDir(), "README.txt")
	if err := os.WriteFile(foreign, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("foreign file tripped the scan: %s", rep.Summary())
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("foreign file disturbed: %v", err)
	}
}

func TestNameValidation(t *testing.T) {
	s := openClean(t)
	bad := []struct{ key, kind string }{
		{"", "report"},
		{"k", ""},
		{"../escape", "report"},
		{"k", "../../etc/passwd"},
		{"a/b", "report"},
		{"k", "re\\port"},
	}
	for _, tc := range bad {
		if err := s.Put(tc.key, tc.kind, []byte("x")); err == nil {
			t.Errorf("Put(%q, %q) accepted", tc.key, tc.kind)
		}
		if _, _, err := s.Get(tc.key, tc.kind, nil); err == nil {
			t.Errorf("Get(%q, %q) accepted", tc.key, tc.kind)
		}
		if s.Has(tc.key, tc.kind) {
			t.Errorf("Has(%q, %q) = true", tc.key, tc.kind)
		}
	}
}

func TestConcurrentPutGetRace(t *testing.T) {
	s := openClean(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := Key([]byte{byte(i % 4)})
			for j := 0; j < 50; j++ {
				if err := s.Put(key, "report", []byte(strings.Repeat("x", 100))); err != nil {
					t.Error(err)
					return
				}
				if got, ok, err := s.Get(key, "report", nil); err != nil {
					t.Error(err)
					return
				} else if ok && len(got) != 100 {
					t.Errorf("torn read: %d bytes", len(got))
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
