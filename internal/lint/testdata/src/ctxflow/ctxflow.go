package ctxflow

import (
	"context"

	"ctxflow/work"
)

// Run receives a ctx but hands the work to the legacy API: the caller's
// deadline stops propagating right here.
func Run(ctx context.Context, n int) int {
	return work.Do(n) // want `call ctxflow/work\.DoContext`
}

// RunGood forwards cancellation.
func RunGood(ctx context.Context, n int) int {
	return work.DoContext(ctx, n)
}

// RunPure calls a helper that has no Context sibling: clean.
func RunPure(ctx context.Context, n int) int {
	return work.Pure(n)
}

// Legacy has no ctx to drop: clean.
func Legacy(n int) int {
	return work.Do(n)
}

// Fire is the sanctioned escape: a fire-and-forget audit write that must
// outlive the request.
func Fire(ctx context.Context, n int) int {
	//lint:allow ctxdiscipline fire-and-forget audit write outlives the request
	return work.Do(n)
}
