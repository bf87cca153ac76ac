package ctxflow

import (
	"context"
	"os/exec"

	"ctxflow/work"
)

// RunMethod drops its ctx on a method whose receiver has the sibling.
func RunMethod(ctx context.Context, c *work.Client) int {
	return c.Fetch(1) // want `call \(\*ctxflow/work\.Client\)\.FetchContext`
}

// Later's closure is its own scope and takes no ctx: clean.
func Later(ctx context.Context, n int) func() int {
	return func() int { return work.Do(n) }
}

// Handler holds no ctx, but the closure it returns does.
func Handler() func(context.Context, int) int {
	return func(ctx context.Context, n int) int {
		return work.Do(n) // want `func literal holds a ctx but calls ctxflow/work\.Do`
	}
}

// Note passes its ctx along as an argument: clean.
func Note(ctx context.Context) int {
	return work.Log(ctx, "note")
}

// Shell calls a standard-library API that has a Context sibling; only
// module APIs count: clean.
func Shell(ctx context.Context) *exec.Cmd {
	return exec.Command("true")
}
