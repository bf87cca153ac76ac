// Package store is difftraced's crash-safe artifact store. Artifacts —
// rendered diff reports, scrubbed observability manifests, ingest
// summaries — are content-addressed: the key is the SHA-256 of the raw
// input bytes (or, for pair-level artifacts, of the canonical pair
// descriptor), so identical submissions dedup to the same cache entry and
// a changed input can never alias a stale artifact.
//
// Crash safety rests on three properties:
//
//  1. Atomic visibility. Writes land in a same-directory temp file and
//     are renamed into place, so a reader (or a restarted daemon) only
//     ever observes absent or complete artifacts — never a half-written
//     one under its final name.
//  2. Self-verifying artifacts. Every file carries a header with the
//     payload length and SHA-256, verified on every read. A torn write
//     that survives a crash (power loss between write and rename is
//     invisible; rename-then-torn-page is not) is detected, not served.
//  3. Recovery scan. Open walks the object directory, verifies every
//     artifact, moves failures into quarantine/ and accounts for them on
//     a resilience.IngestReport — the same Keep/Drop/Quarantine ledger
//     the trace readers use — so an operator sees exactly what a crash
//     cost, and a corrupt artifact can be inspected but never served.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"difftrace/internal/resilience"
)

// magic is the artifact header's first line. The trailing version digit
// gates future format changes: an unknown magic quarantines the file
// rather than misparsing it.
const magic = "DTSTORE1"

// artExt marks artifact files; everything else in objects/ is foreign and
// left alone by the recovery scan.
const artExt = ".art"

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	root string
}

// Key returns the content address of raw input bytes: lowercase-hex
// SHA-256.
func Key(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// PairKey derives one content address from an ordered list of parts
// (e.g. normal-trace hash, faulty-trace hash, filter spec, attribute
// config). Parts are length-prefixed before hashing so no two distinct
// lists collide by concatenation.
func PairKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Open opens (creating if needed) a store rooted at dir and runs the
// recovery scan: leftover temp files from interrupted writes are deleted,
// and every artifact in objects/ is checksum-verified — failures move to
// quarantine/ and are recorded on the returned IngestReport with the
// reader vocabulary (TruncatedStream for short/headerless files,
// CorruptStream for checksum mismatches). The report is never nil; a
// clean store returns report.Clean() == true.
func Open(dir string) (*Store, *resilience.IngestReport, error) {
	s := &Store{root: dir}
	for _, sub := range []string{s.objectsDir(), s.quarantineDir(), s.tmpDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	rep := resilience.NewIngestReport(true)

	// Interrupted writes only ever live in tmp/: they are garbage by
	// construction (the rename never happened), so recovery deletes them.
	tmps, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return nil, nil, fmt.Errorf("store: scan tmp: %w", err)
	}
	for _, e := range tmps {
		if !e.IsDir() {
			os.Remove(filepath.Join(s.tmpDir(), e.Name()))
		}
	}

	objs, err := os.ReadDir(s.objectsDir())
	if err != nil {
		return nil, nil, fmt.Errorf("store: scan objects: %w", err)
	}
	for _, e := range objs {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, artExt) {
			continue
		}
		path := filepath.Join(s.objectsDir(), name)
		if _, verr := readArtifact(path); verr != nil {
			s.quarantineFile(path, name, verr, rep)
			continue
		}
		rep.Keep(1)
	}
	return s, rep, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) objectsDir() string    { return filepath.Join(s.root, "objects") }
func (s *Store) quarantineDir() string { return filepath.Join(s.root, "quarantine") }
func (s *Store) tmpDir() string        { return filepath.Join(s.root, "tmp") }

// fileName maps (key, kind) to the artifact file name. Kind is a short
// label like "report" or "manifest"; it must not contain path
// separators.
func fileName(key, kind string) string {
	return key + "-" + kind + artExt
}

// errCorrupt and errTruncated classify verification failures so the scan
// can pick the matching resilience reason.
var (
	errCorrupt   = errors.New("checksum mismatch")
	errTruncated = errors.New("truncated artifact")
)

// writeArtifact serializes header+payload into w's final path atomically:
// temp file in tmp/ (same filesystem), then rename.
func (s *Store) writeArtifact(finalPath string, payload []byte) error {
	sum := sha256.Sum256(payload)
	tmp, err := os.CreateTemp(s.tmpDir(), "put-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	header := magic + "\n" + hex.EncodeToString(sum[:]) + "\n" + strconv.Itoa(len(payload)) + "\n"
	_, werr := tmp.WriteString(header)
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	if serr := tmp.Sync(); werr == nil {
		werr = serr
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return werr
	}
	if err := os.Rename(tmpName, finalPath); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// readArtifact verifies and returns an artifact's payload.
func readArtifact(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(string(raw), magic+"\n")
	if !ok {
		return nil, fmt.Errorf("%w: bad magic", errTruncated)
	}
	sumHex, rest, ok := strings.Cut(rest, "\n")
	if !ok {
		return nil, fmt.Errorf("%w: missing checksum line", errTruncated)
	}
	lenStr, payload, ok := strings.Cut(rest, "\n")
	if !ok {
		return nil, fmt.Errorf("%w: missing length line", errTruncated)
	}
	want, err := strconv.Atoi(lenStr)
	if err != nil || want < 0 {
		return nil, fmt.Errorf("%w: bad length %q", errCorrupt, lenStr)
	}
	if len(payload) < want {
		return nil, fmt.Errorf("%w: %d of %d payload bytes", errTruncated, len(payload), want)
	}
	if len(payload) > want {
		return nil, fmt.Errorf("%w: %d bytes past declared length", errCorrupt, len(payload)-want)
	}
	sum := sha256.Sum256([]byte(payload))
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, errCorrupt
	}
	return []byte(payload), nil
}

// quarantineFile moves a failed artifact aside and accounts for it. The
// move is best-effort: if the rename fails (e.g. the file vanished) the
// accounting still records the failure.
func (s *Store) quarantineFile(path, id string, verr error, rep *resilience.IngestReport) {
	reason := resilience.CorruptStream
	if errors.Is(verr, errTruncated) {
		reason = resilience.TruncatedStream
	}
	os.Rename(path, filepath.Join(s.quarantineDir(), id))
	if rep != nil {
		rep.Quarantine(id, reason)
	}
}

// Put stores payload under (key, kind), atomically. Re-putting the same
// pair overwrites (the content address makes the payload identical in
// practice, so this is idempotent).
func (s *Store) Put(key, kind string, payload []byte) error {
	if err := checkName(key, kind); err != nil {
		return err
	}
	final := filepath.Join(s.objectsDir(), fileName(key, kind))
	if err := s.writeArtifact(final, payload); err != nil {
		return fmt.Errorf("store: put %s-%s: %w", key, kind, err)
	}
	return nil
}

// Get returns the payload stored under (key, kind). ok reports whether a
// valid artifact was found. An artifact that fails verification is moved
// to quarantine — corrupt data is never served — and reported as a miss
// so the caller recomputes; the optional report (may be nil) receives the
// quarantine accounting.
func (s *Store) Get(key, kind string, rep *resilience.IngestReport) (payload []byte, ok bool, err error) {
	if err := checkName(key, kind); err != nil {
		return nil, false, err
	}
	name := fileName(key, kind)
	path := filepath.Join(s.objectsDir(), name)
	payload, verr := readArtifact(path)
	if verr == nil {
		return payload, true, nil
	}
	if errors.Is(verr, os.ErrNotExist) {
		return nil, false, nil
	}
	if errors.Is(verr, errCorrupt) || errors.Is(verr, errTruncated) {
		s.quarantineFile(path, name, verr, rep)
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("store: get %s-%s: %w", key, kind, verr)
}

// Has reports whether a valid artifact exists under (key, kind) without
// returning its payload (the artifact is still fully verified; a corrupt
// one reads as absent but is left in place for Get to quarantine).
func (s *Store) Has(key, kind string) bool {
	if checkName(key, kind) != nil {
		return false
	}
	_, err := readArtifact(filepath.Join(s.objectsDir(), fileName(key, kind)))
	return err == nil
}

// Quarantined lists the file names currently in quarantine/, sorted.
func (s *Store) Quarantined() ([]string, error) {
	ents, err := os.ReadDir(s.quarantineDir())
	if err != nil {
		return nil, fmt.Errorf("store: list quarantine: %w", err)
	}
	var out []string
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// checkName rejects keys/kinds that could escape the objects directory
// or collide with the artifact naming scheme.
func checkName(key, kind string) error {
	if key == "" || kind == "" {
		return fmt.Errorf("store: empty key or kind")
	}
	for _, part := range []string{key, kind} {
		if strings.ContainsAny(part, "/\\\x00") || strings.Contains(part, "..") {
			return fmt.Errorf("store: invalid name %q", part)
		}
	}
	return nil
}
