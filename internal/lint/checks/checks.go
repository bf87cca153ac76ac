// Package checks is the registry of difftracelint's project invariants.
// cmd/difftracelint and the self-check test both run All(), so "the linter
// is clean" means the same thing on a developer laptop and in CI.
package checks

import (
	"difftrace/internal/lint"
	"difftrace/internal/lint/checks/atomicdiscipline"
	"difftrace/internal/lint/checks/ctxdiscipline"
	"difftrace/internal/lint/checks/errwrap"
	"difftrace/internal/lint/checks/expanddiscipline"
	"difftrace/internal/lint/checks/lockdiscipline"
	"difftrace/internal/lint/checks/nakedgoroutine"
	"difftrace/internal/lint/checks/nilreceiver"
	"difftrace/internal/lint/checks/obsdiscipline"
	"difftrace/internal/lint/checks/orderflow"
	"difftrace/internal/lint/checks/panicdiscipline"
	"difftrace/internal/lint/checks/wallclock"
)

// All returns every registered check in stable (alphabetical) order. The
// two RunModule checks (lockdiscipline, orderflow) share one call graph
// and one summary set per run via the ModulePass fact table.
func All() []*lint.Check {
	return []*lint.Check{
		atomicdiscipline.Check,
		ctxdiscipline.Check,
		errwrap.Check,
		expanddiscipline.Check,
		lockdiscipline.Check,
		nakedgoroutine.Check,
		nilreceiver.Check,
		obsdiscipline.Check,
		orderflow.Check,
		panicdiscipline.Check,
		wallclock.Check,
	}
}

// ByName resolves a comma-separated selection ("orderflow,errwrap") against
// the registry; unknown names return an error listing what exists.
func ByName(names []string) ([]*lint.Check, error) {
	byName := map[string]*lint.Check{}
	for _, c := range All() {
		byName[c.Name] = c
	}
	var out []*lint.Check
	for _, n := range names {
		c, ok := byName[n]
		if !ok {
			return nil, &UnknownCheckError{Name: n}
		}
		out = append(out, c)
	}
	return out, nil
}

// UnknownCheckError names a selection that matched no registered check.
type UnknownCheckError struct{ Name string }

func (e *UnknownCheckError) Error() string {
	msg := "unknown check " + e.Name + "; registered:"
	for _, c := range All() {
		msg += " " + c.Name
	}
	return msg
}
