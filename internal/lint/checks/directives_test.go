package checks_test

import "testing"

// TestDirectiveHygiene proves every //lint:allow in the module still
// suppresses a live finding. A stale directive — one whose finding was fixed
// or whose check stopped firing there — is a silent hole in the invariant it
// was written against, so it fails the build until deleted.
func TestDirectiveHygiene(t *testing.T) {
	_, allows := auditModule(t)
	if len(allows) == 0 {
		t.Fatal("audit saw zero //lint:allow directives — the directive scan is broken (the module has several)")
	}
	for _, a := range allows {
		if !a.Used {
			t.Errorf("%s:%d: stale //lint:allow %s (%s) — the finding it suppressed is gone; delete the directive",
				a.File, a.Line, a.Check, a.Reason)
		}
	}
}
