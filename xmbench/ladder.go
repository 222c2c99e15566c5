package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/debug"
	"time"

	xmjoin "repro"
	"repro/internal/mmql"
	"repro/internal/server"
)

// The traced run replays each ladder statement through every public entry
// point from the engine up to loopback HTTP and times each call from
// outside (see tracer.time). Each statement is climbed repeatedly for
// its share of the run; each call's best time over the climbs is its cost
// with the least interference from the host, and a rung's self time is
// the best time of its call minus that of the call of the rung below it
// on the same statement:
//
//	xmjoin.materialize  PreparedQuery.ExecuteCtx
//	mmql.finish         Prepared.ExecuteCtx     - xmjoin.materialize
//	server.encode       Server.ServeHTTP /query - Prepared.ExecuteCtx - mmql.parse
//	server.transport    loopback POST /query    - Server.ServeHTTP
//
// so the four add up to the loopback time, parse included. Streamable
// statements add xmjoin.stream (PreparedQuery.Rows drained),
// xmjoin.first_row (its first NextBatch) and mmql.stream (Prepared.Rows
// drained - xmjoin.stream); every statement adds mmql.parse, mmql.prepare
// (PrepareStatement - Query.PrepareCtx), core.plan (Query.PrepareCtx) and
// core.index_build (a run right after ResetCatalog - the same run warm).
// A layer's figure is the sum of its self times over the statements.

// span is one timed call, kept in memory and written out at the end.
type span struct {
	Climb int     `json:"climb"`
	Stmt  int     `json:"stmt"`
	Rung  string  `json:"rung"`
	Start float64 `json:"start_ms"` // since the ladder began
	Dur   float64 `json:"dur_ms"`
}

type tracer struct {
	origin time.Time
	climb  int
	stmt   int
	spans  []span
	calls  map[string]float64 // the current statement's call times by rung
}

// time runs f as one span and records its duration. Every span starts on
// a collected heap whose free pages went back to the OS, so no rung pays
// for the garbage of the rung before it or reuses the pages it faulted in.
func (t *tracer) time(rung string, f func() error) error {
	debug.FreeOSMemory()
	start := time.Now()
	err := f()
	t.record(rung, start, ms(time.Since(start)))
	if err != nil {
		return fmt.Errorf("ladder %s: %w", rung, err)
	}
	return nil
}

func (t *tracer) record(rung string, start time.Time, dur float64) {
	t.calls[rung] = dur
	t.spans = append(t.spans, span{Climb: t.climb, Stmt: t.stmt, Rung: rung, Start: ms(start.Sub(t.origin)), Dur: dur})
}

// loopback sends r over HTTP and records its transfer time: from the send
// until the last byte, without the client's decoding and checking.
func (t *tracer) loopback(rung string, cl *client, r *request) (outcome, error) {
	debug.FreeOSMemory()
	start := time.Now()
	o := cl.do(r, time.Time{})
	t.record(rung, start, o.sendMS)
	if o.err != nil {
		return o, fmt.Errorf("ladder %s %q: %w", rung, r.Stmt.Text, o.err)
	}
	return o, nil
}

// climbCounts accumulates counters: those of one climb, or summed over
// statements.
type climbCounts map[string]float64

// ladder climbs each statement repeatedly for its share of dur, so the
// calls whose times are subtracted from each other run close together.
func ladder(ctx context.Context, srv *server.Server, cl *client, stmts []*stmt, dur time.Duration, r *report, spansOut string) error {
	tr := &tracer{origin: time.Now()}
	best := make([]map[string]float64, len(stmts))
	counts := climbCounts{} // per statement, the median over its climbs
	climbs := 0
	for i, s := range stmts {
		tr.stmt = i
		var reps []climbCounts
		start := time.Now()
		for len(reps) == 0 || time.Since(start) < dur/time.Duration(len(stmts)) {
			tot := climbCounts{}
			calls, err := climb(ctx, srv, cl, tr, s, tot)
			if err != nil {
				return err
			}
			if best[i] == nil {
				best[i] = calls
			}
			for k, v := range calls {
				best[i][k] = min(best[i][k], v)
			}
			reps = append(reps, tot)
			tr.climb++
		}
		for k := range reps[0] {
			var xs []float64
			for _, rep := range reps {
				xs = append(xs, rep[k])
			}
			counts[k] += medianOf(xs)
		}
		climbs += len(reps)
	}
	layers := map[string]float64{}
	for i, s := range stmts {
		self := selfTimes(best[i], s)
		for k, v := range self {
			layers[k] += v
		}
		sum := self["xmjoin.materialize"] + self["mmql.finish"] + self["mmql.parse"] + self["server.encode"] + self["server.transport"]
		fmt.Printf("ladder %q: materialize %.2f, finish %.2f, parse %.3f, encode %.2f, transport %.2f, sum %.2f ms; /query %.2f ms untraced; stream %.2f + %.2f ms\n",
			s.Text, self["xmjoin.materialize"], self["mmql.finish"], self["mmql.parse"], self["server.encode"], self["server.transport"],
			sum, best[i]["bare"], self["xmjoin.stream"], self["mmql.stream"])
	}
	for _, k := range []string{"mmql.parse", "mmql.prepare", "mmql.finish", "mmql.stream", "xmjoin.materialize",
		"xmjoin.stream", "xmjoin.first_row", "core.plan", "core.index_build", "structix.build",
		"server.encode", "server.transport"} {
		r.perLayer(k+"_ms", "ms", layers[k])
	}
	r.perLayer("server.bytes_per_row", "bytes", ratio(counts["bytes"], counts["rows_out"]))
	r.perLayer("server.stream_dup_rows", "count", counts["stream_dups"])
	r.perLayer("mmql.rows_in_per_row_out", "ratio", ratio(counts["rows_engine"], counts["rows_out"]))
	r.perLayer("core.intermediate_per_output", "ratio", ratio(counts["intermediate"], counts["output"]))
	r.perLayer("wcoj.leaf_batches", "count", counts["leaf_batches"])
	r.perLayer("wcoj.morsel_splits", "count", counts["morsel_splits"])
	r.perLayer("wcoj.morsel_steals", "count", counts["morsel_steals"])
	r.perLayer("structix.index_bytes", "bytes", counts["struct_bytes"])
	r.perLayer("trace.overhead_frac", "ratio", ratio(layers["loopback"], layers["bare"])-1)
	fmt.Printf("ladder climbs %d\n", climbs)
	if spansOut != "" {
		return writeSpans(spansOut, tr.spans)
	}
	return nil
}

// selfTimes derives one statement's rung self times from the best time of
// each of its calls.
func selfTimes(b map[string]float64, s *stmt) map[string]float64 {
	self := map[string]float64{
		"bare":               b["bare"],
		"loopback":           b["http.query"],
		"mmql.parse":         b["mmql.parse"],
		"core.plan":          b["core.plan"],
		"mmql.prepare":       b["mmql.prepare"] - b["core.plan"],
		"core.index_build":   b["cold"] - b["warm"],
		"xmjoin.materialize": b["xmjoin.materialize"],
		"mmql.finish":        b["mmql.execute"] - b["xmjoin.materialize"],
		"server.encode":      b["server.serve"] - b["mmql.execute"] - b["mmql.parse"],
		"server.transport":   b["http.query"] - b["server.serve"],
	}
	if len(s.Base.Tables) == 0 {
		self["structix.build"] = self["core.index_build"]
	}
	if s.streamable() {
		self["xmjoin.stream"] = b["xmjoin.stream"]
		self["xmjoin.first_row"] = b["xmjoin.first_row"]
		self["mmql.stream"] = b["mmql.stream"] - b["xmjoin.stream"]
	}
	return self
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// climb runs every rung for one statement, adds its counters to tot, and
// returns the time of each call.
func climb(ctx context.Context, srv *server.Server, cl *client, tr *tracer, s *stmt, tot climbCounts) (map[string]float64, error) {
	t, ok := srv.Tenant(s.Tenant)
	if !ok {
		return nil, fmt.Errorf("ladder: no tenant %q", s.Tenant)
	}
	db := t.Database()
	opts := xmjoin.ExecOptions{Parallelism: -1}
	tr.calls = map[string]float64{}
	req := request{Class: "ladder", Stmt: s}

	var st *mmql.Statement
	if err := tr.time("mmql.parse", func() (err error) { st, err = mmql.Parse(s.Text); return err }); err != nil {
		return nil, err
	}
	var twigs []xmjoin.TwigOn
	for _, tw := range st.Twigs {
		twigs = append(twigs, xmjoin.TwigOn{Doc: tw.Doc, Twig: tw.Pattern})
	}
	newQuery := func() (*xmjoin.Query, error) {
		q, err := db.QueryOn(twigs, st.Tables...)
		if err == nil && st.Limit > 0 && st.Items == nil && !st.Exists {
			q.WithLimit(st.Limit)
		}
		return q, err
	}

	// Cold run on an empty catalog, then the same run warm.
	db.ResetCatalog()
	var pq *xmjoin.PreparedQuery
	for _, rung := range []string{"cold", "warm"} {
		if err := tr.time(rung, func() error {
			q, err := newQuery()
			if err != nil {
				return err
			}
			if pq, err = q.PrepareCtx(ctx); err != nil {
				return err
			}
			_, err = pq.ExecuteCtx(ctx, opts)
			return err
		}); err != nil {
			return nil, err
		}
	}

	q, err := newQuery()
	if err != nil {
		return nil, err
	}
	if err := tr.time("core.plan", func() (err error) { pq, err = q.PrepareCtx(ctx); return err }); err != nil {
		return nil, err
	}
	var p *mmql.Prepared
	if err := tr.time("mmql.prepare", func() (err error) { p, err = mmql.PrepareStatement(ctx, db, st); return err }); err != nil {
		return nil, err
	}

	// Results are counted and dropped as soon as their rung ends, so every
	// call runs on the same live heap.
	if err := tr.time("xmjoin.materialize", func() error {
		res, err := pq.ExecuteCtx(ctx, opts)
		if err != nil {
			return err
		}
		stats := res.Stats()
		tot["rows_engine"] += float64(res.Len())
		tot["intermediate"] += float64(stats.TotalIntermediate)
		tot["output"] += float64(stats.Output)
		tot["leaf_batches"] += float64(stats.LeafBatches)
		tot["morsel_splits"] += float64(stats.MorselSplits)
		tot["morsel_steals"] += float64(stats.MorselSteals)
		tot["struct_bytes"] += float64(stats.StructIndexBytes)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := tr.time("mmql.execute", func() error {
		out, err := p.ExecuteCtx(ctx, opts)
		if err == nil {
			tot["rows_out"] += float64(len(out.Rows))
		}
		return err
	}); err != nil {
		return nil, err
	}

	body, _ := json.Marshal(map[string]string{"tenant": s.Tenant, "query": s.Text})
	if err := tr.time("server.serve", func() error {
		rec := httptest.NewRecorder()
		hr := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		hr.Header.Set("Content-Type", "application/json")
		srv.ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
		}
		tot["bytes"] += float64(rec.Body.Len())
		return nil
	}); err != nil {
		return nil, err
	}
	if _, err := tr.loopback("http.query", cl, &req); err != nil {
		return nil, err
	}
	// Untraced reference: the same loopback call again, outside any span.
	debug.FreeOSMemory()
	o := cl.do(&req, time.Time{})
	if o.err != nil {
		return nil, fmt.Errorf("ladder /query %q: %w", s.Text, o.err)
	}
	tr.calls["bare"] = o.sendMS

	if !s.streamable() {
		return tr.calls, nil
	}
	var first float64
	if err := tr.time("xmjoin.stream", func() error {
		t0 := time.Now()
		rows, err := pq.Rows(ctx, opts)
		if err != nil {
			return err
		}
		defer rows.Close()
		for b := rows.NextBatch(); b != nil; b = rows.NextBatch() {
			if first == 0 {
				first = ms(time.Since(t0))
			}
		}
		return rows.Err()
	}); err != nil {
		return nil, err
	}
	tr.calls["xmjoin.first_row"] = first
	if err := tr.time("mmql.stream", func() error {
		rows, err := p.Rows(ctx, opts)
		if err != nil {
			return err
		}
		defer rows.Close()
		for b := rows.NextBatch(); b != nil; b = rows.NextBatch() {
		}
		return rows.Err()
	}); err != nil {
		return nil, err
	}
	sreq := request{Class: "ladder", Stmt: s, Stream: true}
	if o, err = tr.loopback("http.stream", cl, &sreq); err != nil {
		return nil, err
	}
	tot["stream_dups"] += float64(o.dups)
	return tr.calls, nil
}
