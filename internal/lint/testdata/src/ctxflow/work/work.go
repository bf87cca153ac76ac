package work

import "context"

// Do is the legacy entry point; DoContext is its cancellation-aware
// sibling, per the module's Do/DoContext pairing convention. A nil ctx is
// never cancelled, so the wrapper mints no root context.
func Do(n int) int {
	return DoContext(nil, n)
}

func DoContext(ctx context.Context, n int) int {
	if ctx != nil && ctx.Err() != nil {
		return 0
	}
	return n
}

// Pure has no Context sibling: calling it from ctx-bearing code is fine.
func Pure(n int) int { return n * 2 }

// Log takes its values untyped; LogContext is its sibling.
func Log(args ...any) int { return LogContext(nil, args...) }

func LogContext(ctx context.Context, args ...any) int { return len(args) }

// Client pairs its methods the same way.
type Client struct{ base int }

func (c *Client) Fetch(n int) int { return c.FetchContext(nil, n) }

func (c *Client) FetchContext(ctx context.Context, n int) int { return c.base + DoContext(ctx, n) }
