package mmql

import (
	"context"
	"fmt"
	"time"

	xmjoin "repro"
)

// Prepared is an mmql statement ready to run — the one path every
// statement takes (RunCtx is PrepareStatement plus ExecuteCtx) and the
// unit the serving layer caches, keyed by statement text. Preparing does
// the front half once: equality selections on twig tags are pushed into
// the patterns as tag="value" filters, the multi-model query is assembled
// with the VIA algorithm's options, and its plan (attribute order, atom
// set) is frozen in an xmjoin.PreparedQuery. Each execution replays only
// the residual work: selections that could not be pushed, the SELECT
// list's projection or aggregates, and LIMIT. Warm executions therefore
// perform pure join work against the database's shared catalog: zero
// parsing, zero planning, zero atom construction.
//
// The residual work runs on the engine's dictionary-encoded tuples, and
// only the output rows are decoded to strings. Residual selections look
// their constant up in the dictionary once per execution (a constant it
// lacks answers empty without a scan) and compare Values. Answers have
// set semantics: a SELECT list projects and deduplicates, while SELECT *
// is the engine's result, already a set. COUNT(*) without GROUP BY is the
// tuple count; GROUP BY groups on Values.
//
// Output order: rows ascend in Value order over the output columns —
// aggregates over their GROUP BY columns. Values number a database's
// strings in first-load order, so this is not string order. For SELECT *
// it is the generic join's serial emission order, which morsel-parallel
// runs reproduce, so the order is the same at every parallelism.
//
// LIMIT truncates the ordered output rows; for a SELECT * with no
// residual filters it is additionally pushed into the engine, so the join
// itself stops after LIMIT answers. Only there do engine answers map 1:1
// to output rows: a projection list deduplicates, so an engine-side stop
// could silently drop distinct output rows, and those cases limit after
// the join. A parallel run that stops at a pushed LIMIT keeps a
// scheduling-dependent subset of the answers (still in order). EXISTS
// statements stream the join and stop at the first answer that survives
// the residual filters.
//
// EXPLAIN statements execute to the plan text (see Explain); EXPLAIN
// ANALYZE statements run for real under a new trace on every execution
// and return its span tree. VIA baseline statements keep the assembled
// query unfrozen and run it through the baseline's binary joins.
//
// A Prepared is immutable and safe for concurrent ExecuteCtx/Rows/Explain
// calls.
type Prepared struct {
	st        *Statement
	q         *xmjoin.PreparedQuery // nil for VIA baseline
	base      *xmjoin.Query         // VIA baseline only
	remaining []Filter
	prepDur   time.Duration // the prepare span of EXPLAIN ANALYZE traces
}

// PrepareString parses and prepares src against db.
func PrepareString(db *xmjoin.Database, src string) (*Prepared, error) {
	return PrepareStringCtx(nil, db, src)
}

// PrepareStringCtx is PrepareString bounded by ctx: an already-ended
// context fails fast before any plan work.
func PrepareStringCtx(ctx context.Context, db *xmjoin.Database, src string) (*Prepared, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return PrepareStatement(ctx, db, st)
}

// PrepareStatement prepares a parsed statement against db; see Prepared.
func PrepareStatement(ctx context.Context, db *xmjoin.Database, st *Statement) (*Prepared, error) {
	start := time.Now()
	twigs, remaining, err := pushdownFilters(st)
	if err != nil {
		return nil, err
	}
	q, err := db.QueryOn(twigs, st.Tables...)
	if err != nil {
		return nil, err
	}
	if err := applyAlgo(q, st.Algo); err != nil {
		return nil, err
	}
	q.WithLabel(st.label())
	if st.Limit > 0 && st.Items == nil && len(remaining) == 0 && !st.Exists {
		q.WithLimit(st.Limit)
	}
	p := &Prepared{st: st, remaining: remaining}
	if st.Algo == "baseline" && !st.Exists { // EXISTS always streams (Parse rejects it VIA baseline)
		p.base = q
	} else if p.q, err = q.PrepareCtx(ctx); err != nil {
		return nil, err
	}
	p.prepDur = time.Since(start)
	return p, nil
}

// Statement returns the prepared statement (callers must not mutate it).
func (p *Prepared) Statement() *Statement { return p.st }

// Explain renders the plan the statement runs (always the XJoin plan; the
// baseline has a fixed shape). Pushed-down selections are reflected in
// the plan's atom cardinalities.
func (p *Prepared) Explain() (string, error) {
	if p.base != nil {
		return p.base.Explain()
	}
	return p.q.Explain()
}

// ExecuteCtx runs the statement; per-call ExecOptions reach the engine
// (the serving layer passes Parallelism and relies on the context for
// deadlines).
//
// A cancelled or deadline-pre-empted run returns the partial output built
// from the rows found so far (Stats.Cancelled set) alongside an error
// matching xmjoin.ErrCancelled, so servers can deliver partial answers
// with an honest marker instead of nothing.
func (p *Prepared) ExecuteCtx(ctx context.Context, opts ...xmjoin.ExecOptions) (*Output, error) {
	switch {
	case p.st.Analyze:
		return p.analyze(ctx, opts)
	case p.st.Explain:
		text, err := p.Explain()
		if err != nil {
			return nil, err
		}
		return &Output{Text: text}, nil
	}
	return p.run(ctx, opts...)
}

// run executes the statement itself, EXPLAIN prefix aside.
func (p *Prepared) run(ctx context.Context, opts ...xmjoin.ExecOptions) (*Output, error) {
	if p.st.Exists {
		return p.executeExists(ctx, opts...)
	}
	var res *xmjoin.Result
	var execErr error
	if p.base != nil {
		res, execErr = p.base.ExecBaselineCtx(ctx)
	} else {
		res, execErr = p.q.ExecuteCtx(ctx, opts...)
	}
	if res == nil {
		return nil, execErr
	}
	out, err := p.finish(res)
	if err != nil {
		return nil, err
	}
	return out, execErr
}

// analyze executes an EXPLAIN ANALYZE statement under a fresh trace: the
// parse and prepare times, then every span the run records (plan, lazy
// index builds, execution with per-level join counters). The output's
// Text is the span tree; Stats are the run's.
func (p *Prepared) analyze(ctx context.Context, opts []xmjoin.ExecOptions) (*Output, error) {
	tr := xmjoin.NewTrace(p.st.label())
	if p.st.parseDur > 0 {
		tr.Add("parse", p.st.parseDur)
	}
	tr.Add("prepare", p.prepDur)
	var o xmjoin.ExecOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	o.Trace = tr
	out, err := p.run(ctx, o)
	tr.Finish()
	if err != nil {
		return nil, err
	}
	return &Output{Text: tr.Render(), Stats: out.Stats}, nil
}

// executeExists answers an EXISTS statement, always streaming: without
// residual filters it stops at the first validated answer; with them it
// streams on, applying the filters per row, and stops at the first row
// that survives — never materializing the result either way.
func (p *Prepared) executeExists(ctx context.Context, opts ...xmjoin.ExecOptions) (*Output, error) {
	var found bool
	if len(p.remaining) == 0 {
		ok, err := p.q.ExistsCtx(ctx, opts...)
		if err != nil {
			return nil, err
		}
		found = ok
	} else {
		cols, err := filterColumns(p.q.Order(), p.remaining)
		if err != nil {
			return nil, err
		}
		if _, err := p.q.ExecuteStreamCtx(ctx, func(row []string) bool {
			for i, f := range p.remaining {
				if row[cols[i]] != f.Value {
					return true // filtered out; keep streaming
				}
			}
			found = true
			return false
		}, opts...); err != nil && !found {
			// A true answer seen before the context ended is definitive;
			// otherwise the cancellation (or failure) is the answer.
			return nil, err
		}
	}
	return &Output{Attrs: []string{"exists"}, Rows: [][]string{{fmt.Sprint(found)}}}, nil
}

// filterColumns maps residual filters onto row positions in order.
func filterColumns(order []string, filters []Filter) ([]int, error) {
	cols := make([]int, len(filters))
	for i, f := range filters {
		cols[i] = -1
		for j, a := range order {
			if a == f.Attr {
				cols[i] = j
				break
			}
		}
		if cols[i] < 0 {
			return nil, fmt.Errorf("mmql: WHERE references unknown attribute %q", f.Attr)
		}
	}
	return cols, nil
}

// Streamable reports whether the statement's answers can leave row by row
// with unchanged values: aggregates and EXISTS need the whole result (or
// a probe), EXPLAIN returns text and the baseline materializes, so none
// of those are streamable; plain SELECTs are. A stream filters and
// projects each answer but neither deduplicates nor orders: rows arrive
// in the engine's emission order, and a SELECT list may repeat rows that
// ExecuteCtx returns once (documented at the serving layer).
func (p *Prepared) Streamable() bool {
	return p.q != nil && !p.st.Explain && !p.st.Exists && !p.st.HasAggregates() && len(p.st.GroupBy) == 0
}

// StreamRows is a pull cursor over a prepared statement's streamed
// answers: an xmjoin.Rows with the statement's residual filters,
// projection, and LIMIT applied per chunk. One goroutine per cursor, and
// always Close (see xmjoin.Rows).
type StreamRows struct {
	rows  *xmjoin.Rows
	attrs []string
	cols  []int // projection: output column -> engine row position
	fcols []int // residual filters: filter i -> engine row position
	filts []Filter
	limit int
	n     int
	done  bool
}

// Rows starts the streaming execution and returns the cursor. Only
// streamable statements qualify (see Streamable); others return an error
// — execute those with ExecuteCtx.
func (p *Prepared) Rows(ctx context.Context, opts ...xmjoin.ExecOptions) (*StreamRows, error) {
	if !p.Streamable() {
		return nil, fmt.Errorf("mmql: statement is not streamable (aggregates, GROUP BY, EXISTS, EXPLAIN or VIA baseline); use ExecuteCtx")
	}
	order := p.q.Order()
	var attrs []string
	var cols []int
	if p.st.Items == nil {
		attrs = order
		cols = nil // identity
	} else {
		pos := make(map[string]int, len(order))
		for i, a := range order {
			pos[a] = i
		}
		for _, it := range p.st.Items {
			c, ok := pos[it.Attr]
			if !ok {
				return nil, fmt.Errorf("mmql: SELECT references unknown attribute %q", it.Attr)
			}
			cols = append(cols, c)
			attrs = append(attrs, it.Attr)
		}
	}
	fcols, err := filterColumns(order, p.remaining)
	if err != nil {
		return nil, err
	}
	rows, err := p.q.Rows(ctx, opts...)
	if err != nil {
		return nil, err
	}
	return &StreamRows{rows: rows, attrs: attrs, cols: cols, fcols: fcols, filts: p.remaining, limit: p.st.Limit}, nil
}

// Columns returns the streamed row layout.
func (s *StreamRows) Columns() []string { return append([]string(nil), s.attrs...) }

// NextBatch returns the next chunk of answers — residual filters applied,
// projected to Columns, bounded by the statement's LIMIT — or nil when
// the stream is exhausted (consult Err). Chunks are never empty; a chunk
// whose rows are all filtered out is skipped, not returned empty.
func (s *StreamRows) NextBatch() [][]string {
	for !s.done {
		batch := s.rows.NextBatch()
		if batch == nil {
			s.done = true
			return nil
		}
		out := batch[:0]
		for _, row := range batch {
			keep := true
			for i, f := range s.filts {
				if row[s.fcols[i]] != f.Value {
					keep = false
					break
				}
			}
			if !keep {
				continue
			}
			if s.cols != nil {
				pr := make([]string, len(s.cols))
				for i, c := range s.cols {
					pr[i] = row[c]
				}
				row = pr
			}
			out = append(out, row)
			s.n++
			if s.limit > 0 && s.n >= s.limit {
				s.done = true
				break
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// Err reports the error that ended the stream (see xmjoin.Rows.Err); a
// LIMIT-satisfied early close is not an error.
func (s *StreamRows) Err() error {
	if s.done && s.limit > 0 && s.n >= s.limit {
		return nil
	}
	return s.rows.Err()
}

// Stats returns the run's statistics once the stream ended.
func (s *StreamRows) Stats() (xmjoin.Stats, bool) { return s.rows.Stats() }

// Close stops the execution and releases the cursor; idempotent.
func (s *StreamRows) Close() error {
	err := s.rows.Close()
	if s.done && s.limit > 0 && s.n >= s.limit {
		return nil
	}
	return err
}
