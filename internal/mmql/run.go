package mmql

import (
	"context"
	"fmt"

	xmjoin "repro"
	"repro/internal/twig"
	"repro/internal/xmldb"
)

// Run executes a parsed statement against a database: RunCtx with no
// bound.
func Run(db *xmjoin.Database, st *Statement) (*Output, error) {
	return RunCtx(nil, db, st)
}

// RunCtx prepares st (see Prepared for how each statement kind runs) and
// executes it once under ctx (nil = unbounded): cancellation or a
// deadline stops the join within one morsel's work — the shell maps
// Ctrl-C onto this. As with Prepared.ExecuteCtx, a cancelled run returns
// the partial output found so far together with an error matching
// xmjoin.ErrCancelled.
//
// EXPLAIN statements render the plan without executing. EXPLAIN ANALYZE
// statements execute for real — catalog effects, metrics and the
// slow-query log all see the run — under a trace, and the output's Text
// is the span tree: parse and prepare times, every lazy index build the
// run admitted, and execution with per-level join counters.
func RunCtx(ctx context.Context, db *xmjoin.Database, st *Statement) (*Output, error) {
	p, err := PrepareStatement(ctx, db, st)
	if err != nil {
		return nil, err
	}
	return p.ExecuteCtx(ctx)
}

// RunString parses and executes src.
func RunString(db *xmjoin.Database, src string) (*Output, error) {
	return RunStringCtx(nil, db, src)
}

// RunStringCtx parses and executes src under ctx (see RunCtx).
func RunStringCtx(ctx context.Context, db *xmjoin.Database, src string) (*Output, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return RunCtx(ctx, db, st)
}

// applyAlgo maps a VIA algorithm name onto the query's options: xjoin+
// asks for the (already default) lazy in-join A-D filtering explicitly,
// the posthoc and materialized variants pick those modes, hybrid and
// binary select the cost-based planner's plan modes. "baseline" and plain
// "xjoin" leave the defaults.
func applyAlgo(q *xmjoin.Query, algo string) error {
	switch algo {
	case "", "xjoin", "baseline":
	case "xjoin+":
		q.WithAD(xmjoin.ADLazy)
	case "xjoin-posthoc":
		q.WithAD(xmjoin.ADPostHoc)
	case "xjoin-materialized":
		q.WithAD(xmjoin.ADMaterialized)
	case "xjoin-hybrid":
		q.WithPlan(xmjoin.PlanHybrid)
	case "xjoin-binary":
		q.WithPlan(xmjoin.PlanBinary)
	default:
		return fmt.Errorf("mmql: unknown algorithm %q", algo)
	}
	return nil
}

// pushdownFilters rewrites WHERE selections on twig tags into tag="value"
// pattern filters and returns the rewritten patterns plus the selections
// that could not be pushed (attributes not in any twig, or conflicting
// with an existing filter — the latter are left to the post-filter, which
// then correctly yields the empty result — and constants in the "<X>"
// display form, which may name a structural node that a twig's text
// filter cannot match but the post-filter can).
func pushdownFilters(st *Statement) (twigs []xmjoin.TwigOn, remaining []Filter, err error) {
	patterns := make([]*twig.Pattern, len(st.Twigs))
	for i, src := range st.Twigs {
		patterns[i], err = twig.Parse(src.Pattern)
		if err != nil {
			return nil, nil, err
		}
	}
filters:
	for _, f := range st.Filters {
		if _, ok := xmldb.SyntheticDisplayName(f.Value); ok {
			remaining = append(remaining, f)
			continue
		}
		for _, p := range patterns {
			n := p.NodeByTag(f.Attr)
			if n == nil {
				continue
			}
			switch n.ValueFilter {
			case "":
				n.ValueFilter = f.Value
				continue filters
			case f.Value:
				continue filters // already enforced
			default:
				// Contradicts an existing filter; let the post-filter
				// produce the (empty) answer rather than guessing here.
			}
		}
		remaining = append(remaining, f)
	}
	twigs = make([]xmjoin.TwigOn, len(patterns))
	for i, p := range patterns {
		twigs[i] = xmjoin.TwigOn{Doc: st.Twigs[i].Doc, Twig: p.String()}
	}
	return twigs, remaining, nil
}
