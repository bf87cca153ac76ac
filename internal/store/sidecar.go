package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Sidecars are small operational blobs that live beside the
// content-addressed objects: the flight-recorder dump and the queued
// backlog a draining daemon leaves behind, for example. They share
// writeArtifact's atomic temp+fsync+rename discipline and the
// self-verifying DTSTORE1 header, so a crash mid-dump can never leave a
// half-written file that parses — but they are keyed by plain name, may be
// overwritten or deleted freely, and are never part of the artifact cache
// contract.

// sidecarExt distinguishes sidecar files from cache artifacts in root/.
const sidecarExt = ".sidecar"

// PutSidecar atomically stores payload under the given name.
func (s *Store) PutSidecar(name string, payload []byte) error {
	if err := checkSidecarName(name); err != nil {
		return err
	}
	final := filepath.Join(s.root, name+sidecarExt)
	if err := s.writeArtifact(final, payload); err != nil {
		return fmt.Errorf("store: put sidecar %s: %w", name, err)
	}
	return nil
}

// GetSidecar returns the named sidecar's payload; ok is false when it does
// not exist. A sidecar that fails verification is quarantined (corrupt
// operational state is never served) and reads as absent.
func (s *Store) GetSidecar(name string) ([]byte, bool, error) {
	if err := checkSidecarName(name); err != nil {
		return nil, false, err
	}
	path := filepath.Join(s.root, name+sidecarExt)
	payload, verr := readArtifact(path)
	if verr == nil {
		return payload, true, nil
	}
	if errors.Is(verr, os.ErrNotExist) {
		return nil, false, nil
	}
	if errors.Is(verr, errCorrupt) || errors.Is(verr, errTruncated) {
		s.quarantineFile(path, name+sidecarExt, verr, nil)
		return nil, false, nil
	}
	return nil, false, fmt.Errorf("store: get sidecar %s: %w", name, verr)
}

// DeleteSidecar removes the named sidecar; an absent one is not an error.
func (s *Store) DeleteSidecar(name string) error {
	if err := checkSidecarName(name); err != nil {
		return err
	}
	err := os.Remove(filepath.Join(s.root, name+sidecarExt))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("store: delete sidecar %s: %w", name, err)
	}
	return nil
}

// checkSidecarName rejects names that could escape the store root or
// collide with the store's own directories.
func checkSidecarName(name string) error {
	if name == "" {
		return fmt.Errorf("store: empty sidecar name")
	}
	if strings.ContainsAny(name, "/\\\x00") || strings.Contains(name, "..") {
		return fmt.Errorf("store: invalid sidecar name %q", name)
	}
	return nil
}
