package xmjoin

import (
	"context"

	"repro/internal/core"
)

// Stats re-exports the execution statistics every run reports (see the
// core package for the field documentation): per-stage intermediate
// sizes, validation counts, index and catalog observability, the ADMode
// label, and the Cancelled marker for runs abandoned via a context.
type Stats = core.Stats

// ExecOptions are the per-execution knobs — the ones that do not change a
// frozen plan. They appear as the optional trailing argument of every
// PreparedQuery execution method (and its Rows/All cursors). Zero fields
// keep the values frozen at Prepare time; non-zero fields override them
// for this call only.
type ExecOptions struct {
	// Context bounds this execution: cancelling it (or its deadline
	// expiring) stops the run within one morsel's work, returning partial
	// results/statistics with Stats.Cancelled set and an error matching
	// ErrCancelled and the context's own error. It is equivalent to — and
	// overridden by — the ctx argument of the *Ctx methods; nil keeps the
	// execution unbounded.
	Context context.Context
	// Parallelism runs this execution morsel-driven over n workers
	// (negative = GOMAXPROCS); see Query.WithParallelism. To force a
	// serial execution over a plan frozen with parallelism, pass 1
	// (0 means "keep frozen").
	Parallelism int
	// Limit stops this execution after n validated answers; see
	// Query.WithLimit. To run unlimited over a plan frozen with a limit,
	// pass any negative value (0 means "keep frozen").
	Limit int
	// Plan overrides the plan mode for this call: PlanHybrid or
	// PlanBinary re-plan the strategy assignment (materialized binary
	// intermediates are cached on the query, so repeated executions
	// re-join nothing). The zero value PlanWCOJ keeps the mode frozen at
	// Prepare time; to force the pure generic join over a plan frozen
	// with a hybrid mode, prepare a second query without WithPlan.
	Plan PlanMode
	// Trace attaches a per-query trace to this execution only: plan
	// selection, every lazy index build the run admits, and execution
	// with per-level counters become timed spans (see Trace and
	// Query.WithTrace). nil keeps the value frozen at Prepare time —
	// usually no trace, costing one pointer test per phase.
	Trace *Trace
}

// buildExecOptions is the single core.Options-building path every
// execution bottoms out in: Query.With* chaining writes the base options,
// PreparedQuery freezes them, and per-call knobs — a ctx argument and/or
// one ExecOptions — are layered on top here, in that order (an explicit
// ctx argument wins over ExecOptions.Context, being the more deliberate
// of the two).
func buildExecOptions(base core.Options, ctx context.Context, opts []ExecOptions) core.Options {
	o := base
	if len(opts) > 0 {
		e := opts[0]
		if e.Context != nil {
			o.Context = e.Context
		}
		if e.Parallelism != 0 {
			o.Parallelism = e.Parallelism
		}
		if e.Limit != 0 {
			o.Limit = e.Limit
		}
		if e.Plan != PlanWCOJ {
			o.Plan = e.Plan
		}
		if e.Trace != nil {
			o.Trace = e.Trace
		}
	}
	if ctx != nil {
		o.Context = ctx
	}
	return o
}
