package main

import (
	"fmt"
	"time"
)

// analyticMaxPasses bounds the scheduled passes; a run ends on time long
// before it uses them all.
const analyticMaxPasses = 1000

// Analytic workload: one closed-loop client replays a seeded order of the
// heavy statements, each of which is dominated by a different layer: the
// grid join's post-engine finish and encode, its /stream path, a projected
// grid, a deep A-D chain (structural index), and a triangle COUNT(*) whose
// one output row leaves the WCOJ kernel dominant.
func analyticWorkload(seed uint64) *workload {
	const t = "lab"
	in := tenantInput{Name: t, XML: genChain(seed), Tables: append(genGrid(seed, t, gridScale), genTriangle(seed)...)}
	grid := gridStmt(t)
	projected := &stmt{Tenant: t, Base: base{"", []string{"G1", "G2"}}, Items: []string{"gx", "gz"},
		Text: `SELECT gx, gz FROM G1, G2`}
	chain := &stmt{Tenant: t, Base: base{"//a//b", nil}, Text: `SELECT * FROM TWIG '//a//b'`}
	tri := &stmt{Tenant: t, Base: base{"", []string{"E1", "E2", "E3"}}, Count: true,
		Text: `SELECT COUNT(*) FROM E1, E2, E3`}
	list := []request{
		{Class: "grid", Stmt: grid},
		{Class: "grid_stream", Stmt: grid, Stream: true},
		{Class: "projected", Stmt: projected},
		{Class: "chain", Stmt: chain},
		{Class: "triangle", Stmt: tri},
	}
	w := &workload{tenants: []tenantInput{in}, warm: list, ladder: []*stmt{grid, projected, chain, tri}}
	// One list of passes, each a seeded order of the statements; the
	// client stops at the first pass that starts after dur.
	w.schedule = func(dur time.Duration) [][]request {
		r := newRand(seed, "analytic/order")
		var reqs []request
		for n := 0; n < analyticMaxPasses; n++ {
			for _, i := range r.Perm(len(list)) {
				reqs = append(reqs, list[i])
			}
		}
		return [][]request{reqs}
	}
	w.measure = func(cl *client, dur time.Duration, lists [][]request, rep *report) []outcome {
		reqs := lists[0]
		var outs []outcome
		var passes []float64
		byClass := map[string][]float64{}
		var first []float64
		start := time.Now()
		prev := start
		for n := 0; time.Since(start) < dur && (n+1)*len(list) <= len(reqs); n++ {
			pass := 0.0
			for i := n * len(list); i < (n+1)*len(list); i++ {
				o := cl.do(&reqs[i], prev)
				prev = time.Now()
				outs = append(outs, o)
				pass += o.sendMS
				if o.err == nil {
					byClass[o.class] = append(byClass[o.class], o.sendMS)
					if reqs[i].Stream {
						first = append(first, o.firstMS)
					}
				}
			}
			passes = append(passes, pass)
		}
		elapsed := time.Since(start)
		s := summarize(passes)
		rep.endToEnd("p50_ms", "ms", s.P50)
		rep.endToEnd("tail_ms", "ms", s.Tail)
		rep.endToEnd("heavy_p50_ms", "ms", medianOf(byClass["grid"]))
		rep.endToEnd("rps", "1/s", float64(len(outs))/elapsed.Seconds())
		detail(fmt.Sprintf("pass_ms (p50; tail p%.1f of %d)", s.TailPct, s.N), "ms", s.P50)
		for _, c := range []string{"grid", "grid_stream", "projected", "chain", "triangle"} {
			cs := summarize(byClass[c])
			detail(c+"_p50_ms", "ms", cs.P50)
			detail(fmt.Sprintf("%s_tail_ms (p%.1f of %d)", c, cs.TailPct, cs.N), "ms", cs.Tail)
		}
		detail("first_row_p50_ms", "ms", medianOf(first))
		return outs
	}
	return w
}
