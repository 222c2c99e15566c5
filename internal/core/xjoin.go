package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cachehook"
	"repro/internal/obs"
	"repro/internal/relational"
	"repro/internal/wcoj"
	"repro/internal/xmldb/structix"
)

// OrderStrategy selects how the attribute expansion priority PA (Algorithm
// 1's input) is chosen when the caller does not supply one explicitly.
type OrderStrategy int

const (
	// OrderRelationalFirst expands the relational tables' attributes first
	// (schema order), then the remaining twig tags in preorder. Relational
	// atoms are usually the most selective, so this is the default.
	OrderRelationalFirst OrderStrategy = iota
	// OrderDocument expands attributes in first-appearance order: tables in
	// declaration order, then twig preorder.
	OrderDocument
	// OrderGreedy expands attributes by increasing candidate-set size
	// (the minimum distinct-value count over the atoms containing them),
	// a static selectivity heuristic.
	OrderGreedy
	// OrderMinBound greedily minimizes the per-stage AGM bound (one small
	// LP per candidate extension); see MinBoundOrder.
	OrderMinBound
)

// ADMode selects how the twig's cut ancestor-descendant edges participate
// in the join.
type ADMode int

const (
	// ADDefault resolves to ADLazy: partial A-D filtering is the default
	// execution mode now that the region-interval structural index
	// (internal/xmldb/structix) makes the A-D atoms free to build —
	// O(n) memory, lazy stab-query cursors, no pair materialization.
	ADDefault ADMode = iota
	// ADLazy filters intermediate results through structix.RegionADAtom.
	ADLazy
	// ADPostHoc is the paper's plain Algorithm 1: A-D edges are enforced
	// only by the final structural validation.
	ADPostHoc
	// ADMaterialized filters through the original core.ADAtom, which
	// materializes the full value-level A-D relation up front — quadratic
	// in the worst case. Kept as the oracle the lazy path is tested and
	// benchmarked against.
	ADMaterialized
)

// String names the mode for statistics output.
func (m ADMode) String() string {
	switch m {
	case ADLazy:
		return "lazy"
	case ADPostHoc:
		return "posthoc"
	case ADMaterialized:
		return "materialized"
	default:
		return "lazy" // ADDefault resolves to lazy
	}
}

// Options tunes an XJoin run.
type Options struct {
	// Context, when non-nil, bounds the run: cancelling it (or its
	// deadline expiring) stops every executor — serial or morsel-parallel
	// — within one morsel's work regardless of result size, the run
	// returns an error matching ErrCancelled and the context's own error,
	// and the partial result/statistics gathered so far come back with
	// Stats.Cancelled set. A nil Context (or one that can never be
	// cancelled, like context.Background) takes the exact pre-context
	// fast path: no watcher goroutine, no flag, no allocation.
	//
	// Options travels by value through one execution, so carrying the
	// context here is the usual per-call plumbing, not a stored context.
	Context context.Context
	// Order is the explicit attribute priority PA; when nil, Strategy
	// picks one.
	Order []string
	// Strategy selects the automatic ordering (default OrderRelationalFirst).
	Strategy OrderStrategy
	// AD selects how cut A-D twig edges are handled; the zero value
	// resolves to ADLazy, so the paper's future-work extension ("filtering
	// infeasible intermediate results ... during the joining") is on by
	// default. Use ADPostHoc for the paper's plain Algorithm 1 and
	// ADMaterialized for the quadratic oracle index.
	AD ADMode
	// LazyPC swaps the materialized value-level edge indexes behind the
	// P-C atoms for structix's lazy region atoms: per-binding child/parent
	// hops instead of an up-front O(child-count) index build. Results are
	// identical; prefer it when documents are large and queries selective.
	LazyPC bool
	// SkipValidation disables the final structural validation; only safe
	// for queries whose twig has no A-D edges and no branching (tests use
	// it to demonstrate why validation is needed).
	SkipValidation bool
	// Parallelism runs the join morsel-driven over this many workers:
	// 0 or 1 runs serially, negative uses GOMAXPROCS. Workers stream the
	// depth-first executor over partitions of the first attribute's
	// cursor range and validate answers as they appear, so no stage is
	// ever materialized. An unlimited parallel XJoin reproduces the
	// serial output and statistics exactly.
	Parallelism int
	// Limit, when positive, stops the join after that many validated
	// answers — early termination (existence checks are Limit=1). It
	// composes with Parallelism: workers claim emission slots from a
	// shared atomic counter and every worker short-circuits once the
	// limit is reached, so a limited parallel run returns exactly
	// min(Limit, |answers|) tuples (a scheduling-dependent subset of the
	// full answer) without enumerating the rest.
	Limit int
	// Trace, when non-nil, collects the run's timed span tree — plan/order
	// selection, execution, every lazy index build, and per-level join
	// counters — for EXPLAIN ANALYZE. The nil fast path costs one pointer
	// test per phase (never per tuple): the per-level counters ride the
	// statistics the executors gather anyway.
	Trace *obs.Trace
	// Plan selects the executor strategy mix: PlanWCOJ (the zero value)
	// runs the pure generic join, PlanHybrid materializes the cost-accepted
	// acyclic fringe with binary hash joins and keeps the GYO cyclic core
	// on the generic join, PlanBinary forces every component through hash
	// joins. All modes produce identical results; see PlanMode.
	Plan PlanMode
}

// adMode resolves the effective A-D handling (ADDefault becomes ADLazy).
func (o Options) adMode() ADMode {
	switch o.AD {
	case ADLazy, ADPostHoc, ADMaterialized:
		return o.AD
	}
	return ADLazy
}

// atomConfig derives the executor atom-set configuration.
func (o Options) atomConfig() atomConfig {
	return atomConfig{ad: o.adMode(), lazyPC: o.LazyPC}
}

// algoLabel names the run for Stats.Algorithm. In-join A-D filtering is on
// by default, so the label distinguishes what the caller *asked for*:
// "xjoin+" only for an explicit filtering request (an AD mode other than
// ADDefault and ADPostHoc); default runs keep the historical
// "xjoin" label and report the effective mode in Stats.ADMode instead.
// Non-default plan modes get their own labels, so the per-algorithm query
// metrics separate hybrid and forced-binary runs.
func (o Options) algoLabel() string {
	switch o.Plan {
	case PlanHybrid:
		return "xjoin-hybrid"
	case PlanBinary:
		return "xjoin-binary"
	}
	if o.adMode() == ADPostHoc {
		return "xjoin"
	}
	if o.AD != ADDefault {
		return "xjoin+"
	}
	return "xjoin"
}

// XJoin evaluates the query with Algorithm 1: a worst-case optimal
// attribute-at-a-time expansion over all atoms of both models, followed by
// structural validation of the twig on the candidate answers.
//
// Failure semantics: a run aborted by its context returns the partial
// result with an error matching ErrCancelled; a run aborted by a
// recovered engine panic returns the partial result with an error
// matching ErrInternal; a lazily built index refused by the catalog
// budget transparently reruns in the degraded post-hoc configuration
// (Stats.Degraded records why), so ErrBudgetExceeded only surfaces when
// no cheaper shape exists.
func XJoin(q *Query, opts Options) (*Result, error) {
	algo := opts.algoLabel()
	res, err := xjoinRun(q, opts, algo, "")
	if dopts, reason, ok := degradeOptions(q, opts, err); ok {
		return xjoinRun(q, dopts, algo, reason)
	}
	return res, err
}

// xjoinRun is one XJoin attempt under a fixed configuration; degraded
// carries the budget-fallback reason into the run's statistics (empty for
// a first attempt).
func xjoinRun(q *Query, opts Options, algo, degraded string) (*Result, error) {
	guard, gerr := newCancelGuard(opts.Context)
	if gerr != nil {
		// Already over before any join work: an empty partial result
		// carrying the Cancelled marker, alongside the error.
		return &Result{Stats: Stats{Algorithm: algo, ADMode: q.adModeLabel(opts), Cancelled: true, Degraded: degraded}}, gerr
	}
	defer guard.stop()
	tr := opts.Trace
	var plan *obs.Span
	if tr != nil {
		plan = tr.Start("plan")
	}
	atoms := q.atoms(opts.atomConfig())
	if len(atoms) == 0 {
		return nil, fmt.Errorf("core: query has no atoms")
	}
	order := opts.Order
	if order == nil {
		var err error
		order, err = chooseOrderErr(q, opts.Strategy)
		if err != nil {
			return nil, err
		}
	}
	if err := checkOrder(q, order); err != nil {
		return nil, err
	}
	bctl := q.buildControl(opts)
	if opts.Plan != PlanWCOJ {
		// Swap in the hybrid plan's atom list: the generic join below runs
		// unchanged over [retained atoms + materialized binary subplans],
		// with the same full attribute order.
		var herr error
		atoms, _, herr = q.hybridAtoms(opts, guard, bctl, plan)
		if herr != nil {
			plan.End()
			return nil, herr
		}
	}
	if tr != nil {
		plan.SetInt("atoms", int64(len(atoms)))
		plan.SetStr("order", strings.Join(order, " "))
		if opts.Plan != PlanWCOJ {
			plan.SetStr("plan_mode", opts.Plan.String())
		}
		plan.End()
	}

	if opts.Parallelism < 0 || opts.Parallelism > 1 {
		return xjoinParallel(q, opts, atoms, order, algo, degraded, guard, bctl)
	}

	// Serial path: stream candidate tuples out of the iterator-based
	// executor and apply Algorithm 1's final filter ("Filter R by
	// validating structure of Sx") per tuple, so no unvalidated stage is
	// ever materialized and Limit can stop the join early.
	var validators []*validator
	if len(q.twigs) > 0 && !opts.SkipValidation {
		validators = make([]*validator, len(q.twigs))
		for i, tw := range q.twigs {
			validators[i] = newValidator(tw.ix, tw.pattern, order)
		}
	}
	res := &Result{Stats: Stats{Algorithm: algo, ADMode: q.adModeLabel(opts), Degraded: degraded, Plan: opts.planLabel()}}
	exec := traceExecStart(tr, &bctl, 1, degraded)
	gjStats, err := wcoj.GenericJoinStreamOpts(atoms, order, wcoj.StreamOpts{Cancel: guard.cancelFlag(), Check: guard.checkFunc(), Build: bctl}, func(t relational.Tuple) bool {
		for _, v := range validators {
			if !v.hasWitness(t) {
				res.Stats.ValidationRemoved++
				return true
			}
		}
		res.Tuples = append(res.Tuples, t.Clone())
		return opts.Limit <= 0 || len(res.Tuples) < opts.Limit
	})
	exec.End()
	if err != nil {
		if isPanic(err) {
			// The panic was isolated at the executor boundary; the tuples
			// validated before it are a correct partial answer.
			res.Attrs = order
			res.Stats.Internal = true
			res.Stats.Output = len(res.Tuples)
			return res, Internal(err)
		}
		return nil, err
	}
	res.Attrs = gjStats.Order
	res.Stats.Order = gjStats.Order
	res.Stats.StageSizes = gjStats.StageSizes
	res.Stats.PeakIntermediate = gjStats.PeakIntermediate
	res.Stats.LeafBatches = gjStats.Batches
	res.Stats.Output = len(res.Tuples)
	for _, s := range gjStats.StageSizes {
		res.Stats.TotalIntermediate += s
	}
	addIndexStats(atoms, &res.Stats)
	q.addCatalogStats(&res.Stats)
	traceExecStats(exec, gjStats, &res.Stats)
	if cerr := guard.err(); cerr != nil {
		res.Stats.Cancelled = true
		return res, cerr
	}
	return res, nil
}

// xjoinParallel is XJoin over the morsel-driven parallel executor: each
// worker streams the depth-first expansion over its morsels of
// first-attribute keys and applies the structural validation per tuple, so
// — unlike the former breadth-first path — no unvalidated stage is ever
// materialized and Limit terminates all workers early through a shared
// atomic counter. Validated tuples are collected per morsel and
// reassembled in morsel order, which for an unlimited run is exactly the
// serial executor's output sequence.
func xjoinParallel(q *Query, opts Options, atoms []wcoj.Atom, order []string, algo, degraded string, guard *cancelGuard, bctl cachehook.BuildControl) (*Result, error) {
	pworkers := opts.Parallelism
	if pworkers < 0 {
		pworkers = 0
	}
	workers := wcoj.ResolveWorkers(pworkers)
	// Validators are shared across workers: hasWitness keeps no state
	// between calls and only reads the immutable document indexes.
	var validators []*validator
	if len(q.twigs) > 0 && !opts.SkipValidation {
		validators = make([]*validator, len(q.twigs))
		for i, tw := range q.twigs {
			validators[i] = newValidator(tw.ix, tw.pattern, order)
		}
	}
	col := wcoj.NewMorselCollector(workers)
	removed := make([]int, workers)
	var accepted atomic.Int64
	limit := int64(opts.Limit)
	exec := traceExecStart(opts.Trace, &bctl, workers, degraded)
	gjStats, err := wcoj.GenericJoinParallelMorsels(atoms, order, wcoj.ParallelOpts{Workers: workers, Cancel: guard.cancelFlag(), Check: guard.checkFunc(), Build: bctl, Deadline: contextDeadline(opts.Context)},
		func(w int) func(wcoj.OrdKey, relational.Tuple) bool {
			return func(ord wcoj.OrdKey, t relational.Tuple) bool {
				for _, v := range validators {
					if !v.hasWitness(t) {
						removed[w]++
						return true
					}
				}
				if limit > 0 {
					// Claim a slot; over-claims are discarded so exactly
					// min(Limit, |answers|) validated tuples survive.
					n := accepted.Add(1)
					if n > limit {
						return false
					}
					col.Add(w, ord, t)
					return n < limit
				}
				col.Add(w, ord, t)
				return true
			}
		})
	exec.End()
	if err != nil {
		if isPanic(err) {
			// All workers have joined, so the collector is quiescent; the
			// tuples validated before the failure are a correct partial
			// answer.
			res := &Result{Attrs: order, Tuples: col.Tuples(), Stats: Stats{
				Algorithm: algo, ADMode: q.adModeLabel(opts), Degraded: degraded, Internal: true,
			}}
			res.Stats.Output = len(res.Tuples)
			return res, Internal(err)
		}
		return nil, err
	}
	res := &Result{Attrs: gjStats.Order, Tuples: col.Tuples(), Stats: Stats{
		Algorithm:        algo,
		ADMode:           q.adModeLabel(opts),
		Degraded:         degraded,
		Plan:             opts.planLabel(),
		Order:            gjStats.Order,
		StageSizes:       gjStats.StageSizes,
		PeakIntermediate: gjStats.PeakIntermediate,
		LeafBatches:      gjStats.Batches,
		MorselSplits:     gjStats.Splits,
		MorselSteals:     gjStats.Steals,
		DeadlineStops:    gjStats.DeadlineStops,
	}}
	for _, r := range removed {
		res.Stats.ValidationRemoved += r
	}
	for _, s := range gjStats.StageSizes {
		res.Stats.TotalIntermediate += s
	}
	res.Stats.Output = len(res.Tuples)
	addIndexStats(atoms, &res.Stats)
	q.addCatalogStats(&res.Stats)
	traceExecStats(exec, gjStats, &res.Stats)
	if cerr := guard.err(); cerr != nil {
		res.Stats.Cancelled = true
		return res, cerr
	}
	if gjStats.DeadlineStops > 0 {
		// The deadline gate pre-empted the run at a morsel boundary,
		// possibly before the deadline itself passed (the EWMA said one
		// more morsel would not fit). Report the cancellation it is: the
		// partial answer rides along, as with any cancelled run.
		res.Stats.Cancelled = true
		return res, Cancelled(context.DeadlineExceeded)
	}
	return res, nil
}

// contextDeadline extracts a context's deadline for the parallel
// scheduler's gate (zero when absent — no gating).
func contextDeadline(ctx context.Context) time.Time {
	if ctx == nil {
		return time.Time{}
	}
	d, _ := ctx.Deadline()
	return d
}

// addIndexStats folds the table atoms' index observability counters and
// the structural (region-interval) indexes behind any structix atoms into
// the run's statistics. Several atoms of one document share one
// structix.Index, so indexes are deduplicated by identity before summing.
func addIndexStats(atoms []wcoj.Atom, stats *Stats) {
	six := make(map[*structix.Index]bool)
	for _, a := range atoms {
		switch at := unwrapAtom(a).(type) {
		case *wcoj.MaterializedAtom:
			// A binary subplan's intermediate: its chain counters feed the
			// binary-side statistics, and the wrapped table's sorted-column
			// indexes count like any other table atom's.
			stats.BinarySubplans++
			stats.BinaryIntermediate += at.BinaryStats().TotalIntermediate
			info := at.IndexInfo()
			stats.TableIndexes += info.Indexes
			stats.TableIndexBytes += info.ApproxBytes
		case *wcoj.TableAtom:
			info := at.IndexInfo()
			stats.TableIndexes += info.Indexes
			stats.TableIndexBytes += info.ApproxBytes
		case *structix.RegionADAtom:
			six[at.Index()] = true
		case *structix.RegionPCAtom:
			six[at.Index()] = true
		}
	}
	for ix := range six {
		info := ix.Info()
		stats.StructIndexes += info.TagRuns + info.EdgeProjections
		stats.StructIndexBytes += info.ApproxBytes
	}
}

// Prepare freezes an execution plan for q under opts and returns the
// frozen options: the attribute priority is resolved once (strategy errors
// and invalid explicit orders surface here, not at execution), and the
// executor atom set for the chosen configuration is resolved into the
// query's cache so the first Execute pays no plan or atom work. The
// returned options are safe to reuse — by value — for any number of
// concurrent XJoin/XJoinStream calls over q; index builds stay lazy and
// are shared through the query's (or its catalog's) structures.
//
// A pre-cancelled Options.Context fails fast with an error matching
// ErrCancelled before any plan or atom work.
func Prepare(q *Query, opts Options) (Options, error) {
	if ctx := opts.Context; ctx != nil {
		if err := ctx.Err(); err != nil {
			return opts, Cancelled(err)
		}
	}
	if opts.Order == nil {
		// Every strategy returns a permutation of q's attributes, so only
		// an explicit order needs checking here.
		order, err := chooseOrderErr(q, opts.Strategy)
		if err != nil {
			return opts, err
		}
		opts.Order = order
	} else if err := checkOrder(q, opts.Order); err != nil {
		return opts, err
	}
	q.atoms(opts.atomConfig())
	if opts.Plan != PlanWCOJ {
		// Resolve the decomposition now (planning errors surface here);
		// subplan materialization stays lazy and is cached by the first
		// execution.
		if _, err := q.hybridPlan(opts.atomConfig(), opts.Plan); err != nil {
			return opts, err
		}
	}
	return opts, nil
}

// ChooseOrder computes the attribute priority PA for the given strategy.
// For OrderMinBound use MinBoundOrder directly to observe LP errors; this
// wrapper falls back to the default strategy if the LP fails.
func ChooseOrder(q *Query, s OrderStrategy) []string {
	order, err := chooseOrderErr(q, s)
	if err != nil {
		return ChooseOrder(q, OrderRelationalFirst)
	}
	return order
}

func chooseOrderErr(q *Query, s OrderStrategy) ([]string, error) {
	if s == OrderMinBound {
		return MinBoundOrder(q)
	}
	return chooseOrderStatic(q, s), nil
}

func chooseOrderStatic(q *Query, s OrderStrategy) []string {
	switch s {
	case OrderDocument:
		return q.Attrs()
	case OrderGreedy:
		return greedyOrder(q)
	default: // OrderRelationalFirst
		var out []string
		seen := make(map[string]bool)
		for _, t := range q.Tables {
			for _, a := range t.Schema().Attrs() {
				if !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
		}
		for _, tw := range q.twigs {
			for _, a := range tw.pattern.Attrs() {
				if !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
		}
		return out
	}
}

// greedyOrder sorts attributes by the minimum distinct-value count over the
// atoms containing them (ties broken by first-appearance order, keeping the
// order deterministic).
func greedyOrder(q *Query) []string {
	attrs := q.Attrs()
	weight := make(map[string]int, len(attrs))
	for _, a := range attrs {
		weight[a] = int(^uint(0) >> 1)
	}
	consider := func(attr string, n int) {
		if w, ok := weight[attr]; ok && n < w {
			weight[attr] = n
		}
	}
	for _, t := range q.Tables {
		for i, a := range t.Schema().Attrs() {
			consider(a, len(t.DistinctValues(i)))
		}
	}
	for _, tw := range q.twigs {
		for _, qa := range tw.pattern.Attrs() {
			consider(qa, tw.ix.TagValues(qa).Len())
		}
	}
	rank := make(map[string]int, len(attrs))
	for i, a := range attrs {
		rank[a] = i
	}
	sort.SliceStable(attrs, func(i, j int) bool {
		wi, wj := weight[attrs[i]], weight[attrs[j]]
		if wi != wj {
			return wi < wj
		}
		return rank[attrs[i]] < rank[attrs[j]]
	})
	return attrs
}

func checkOrder(q *Query, order []string) error {
	want := q.Attrs()
	if len(order) != len(want) {
		return fmt.Errorf("core: attribute order has %d attributes, query has %d", len(order), len(want))
	}
	seen := make(map[string]bool, len(order))
	for _, a := range order {
		seen[a] = true
	}
	for _, a := range want {
		if !seen[a] {
			return fmt.Errorf("core: attribute order is missing %q", a)
		}
	}
	return nil
}

// SortResultTuples orders a result's tuples lexicographically in place, for
// deterministic output and comparisons.
func SortResultTuples(r *Result) {
	sort.Slice(r.Tuples, func(i, j int) bool {
		a, b := r.Tuples[i], r.Tuples[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// EqualResults reports whether two results hold the same tuple set over the
// same attributes (order-insensitive on both attributes and tuples).
func EqualResults(a, b *Result) bool {
	if len(a.Tuples) != len(b.Tuples) {
		return false
	}
	attrs := append([]string(nil), a.Attrs...)
	sort.Strings(attrs)
	pa, err := project(a.Attrs, attrs)
	if err != nil {
		return false
	}
	pb, err := project(b.Attrs, attrs)
	if err != nil {
		return false
	}
	key := func(t relational.Tuple, cols []int) string {
		buf := make([]byte, 0, len(cols)*8)
		for _, c := range cols {
			v := uint64(t[c])
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
				byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
		}
		return string(buf)
	}
	set := make(map[string]int, len(a.Tuples))
	for _, t := range a.Tuples {
		set[key(t, pa)]++
	}
	for _, t := range b.Tuples {
		k := key(t, pb)
		if set[k] == 0 {
			return false
		}
		set[k]--
	}
	return true
}
