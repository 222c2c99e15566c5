package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/mmql"
)

// workload is one traffic mix: the tenants it loads, the statements it
// warms before measuring, the load it measures, and the statements the
// traced run replays down the ladder.
type workload struct {
	tenants []tenantInput
	// budgeted names a tenant whose catalog budget is set below the
	// footprint of all its statements together but above that of its
	// light statements together and of any one statement (see sizeBudget).
	budgeted                 string
	budgetLight, budgetHeavy []*stmt
	warm                     []request
	ladder                   []*stmt
	// refClasses are the request classes server.queue_wait_ms and
	// loadgen.late_ms are taken over (nil = all): those sent at the
	// reference load, not at a rate meant to overload the server.
	refClasses map[string]bool
	// schedule generates the request lists of a measured phase of dur.
	schedule func(dur time.Duration) [][]request
	// measure sends the scheduled lists for dur and reports the
	// end-to-end metrics other than setup_s and mem_peak_mb.
	measure func(cl *client, dur time.Duration, lists [][]request, r *report) []outcome
}

var workloads = map[string]func(seed uint64) *workload{
	"point":    pointWorkload,
	"analytic": analyticWorkload,
	"mixed":    mixedWorkload,
}

func run(w *workload, seed uint64, dur time.Duration, traced bool, spansOut string) (*report, error) {
	r := newReport()
	or, err := newOracle(w.tenants)
	if err != nil {
		return nil, err
	}
	budgets := map[string]int64{}
	if w.budgeted != "" {
		b, err := sizeBudget(w)
		if err != nil {
			return nil, err
		}
		budgets[w.budgeted] = b
	}
	srv, setupS, err := setUp(w.tenants, budgets)
	if err != nil {
		return nil, err
	}
	r.endToEnd("setup_s", "s", setupS)
	ln, err := listen(srv)
	if err != nil {
		return nil, err
	}
	defer ln.close()
	cl := newClient(ln.url, or)
	defer cl.close()
	if err := cl.expectAll(w.warm); err != nil {
		return nil, err
	}
	warm := make([]outcome, len(w.warm))
	for i := range w.warm {
		warm[i] = cl.do(&w.warm[i], time.Time{})
	}
	r.tally(warm)

	// A traced run gives a third of its time to the load and two thirds to
	// the ladder, whose heavy statements need several climbs each.
	loadDur := dur
	if traced {
		loadDur = dur / 3
	}
	lists := w.schedule(loadDur)
	for _, l := range lists {
		if err := cl.expectAll(l); err != nil {
			return nil, err
		}
	}
	or.release()
	runtime.GC()
	before, err := cl.tenantTotals()
	if err != nil {
		return nil, err
	}
	smp := startSampler()
	outs := w.measure(cl, loadDur, lists, r)
	peakMB, allocs, cycles, steal := smp.finish()
	r.steal = steal
	after, err := cl.tenantTotals()
	if err != nil {
		return nil, err
	}
	r.tally(outs)
	r.endToEnd("mem_peak_mb", "MB", peakMB)
	loadLayers(r, w, outs, after.minus(before), allocs, cycles)
	if traced {
		if err := ladder(context.Background(), srv, cl, w.ladder, dur-loadDur, r, spansOut); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// loadLayers reports the per-layer figures the load phase itself yields.
func loadLayers(r *report, w *workload, outs []outcome, d tenantTotals, allocs, cycles uint64) {
	var queue, late []float64
	var stops, partRows, partWant int
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		if w.refClasses == nil || w.refClasses[o.class] {
			queue = append(queue, o.sendMS-o.serverMS)
			late = append(late, o.lateMS)
		}
		stops += o.stops
		if o.deadline > 0 {
			partRows += o.rows
			partWant += o.want
		}
	}
	// Queue waits are rare and long behind heavy requests, so their mean
	// shows them where the median does not.
	r.perLayer("server.queue_wait_ms", "ms", mean(queue))
	detail("server.queue_wait_p50_ms", "ms", medianOf(queue))
	r.perLayer("server.prepcache_hit_ratio", "ratio", ratio(float64(d.prepHits), float64(d.prepHits+d.prepMisses)))
	r.perLayer("server.admission_rejected", "count", float64(d.rejected))
	r.perLayer("catalog.hit_ratio", "ratio", ratio(float64(d.catHits), float64(d.catHits+d.catMisses)))
	r.perLayer("catalog.builds", "count", float64(d.catMisses))
	r.perLayer("catalog.evictions", "count", float64(d.catEvict))
	r.perLayer("catalog.resident_bytes", "bytes", float64(d.resident))
	r.perLayer("wcoj.deadline_stops", "count", float64(stops))
	r.perLayer("wcoj.partial_rows_frac", "ratio", ratio(float64(partRows), float64(partWant)))
	r.perLayer("runtime.alloc_bytes_per_req", "bytes", ratio(float64(allocs), float64(len(outs))))
	r.perLayer("runtime.gc_cycles", "count", float64(cycles))
	lt := summarize(late)
	r.perLayer("loadgen.late_ms", "ms", lt.Tail)
	detail("loadgen.late_p50_ms", "ms", lt.P50)
}

// sizeBudget measures, on a scratch copy of the budgeted tenant, the
// catalog bytes each statement needs alone, the light statements need
// together and all of them need together, and returns a budget halfway
// between the last two: every statement fits alone and the light ones fit
// together, but a heavy statement's indexes push some of theirs out, so
// every heavy run is followed by evictions and rebuilds.
func sizeBudget(w *workload) (int64, error) {
	var in tenantInput
	for _, t := range w.tenants {
		if t.Name == w.budgeted {
			in = t
		}
	}
	db, err := loadDatabase(in)
	if err != nil {
		return 0, err
	}
	footprint := func(ss []*stmt) (int64, error) {
		db.ResetCatalog()
		for _, s := range ss {
			p, err := mmql.PrepareStringCtx(context.Background(), db, s.Text)
			if err != nil {
				return 0, err
			}
			if _, err := p.ExecuteCtx(context.Background()); err != nil {
				return 0, err
			}
		}
		return db.Catalog().Stats().ResidentBytes, nil
	}
	all := append(append([]*stmt(nil), w.budgetLight...), w.budgetHeavy...)
	var largest int64
	for _, s := range all {
		b, err := footprint([]*stmt{s})
		if err != nil {
			return 0, err
		}
		largest = max(largest, b)
	}
	light, err := footprint(w.budgetLight)
	if err != nil {
		return 0, err
	}
	total, err := footprint(all)
	if err != nil {
		return 0, err
	}
	budget := light + (total-light)/2
	if budget <= largest || budget <= light || budget >= total {
		return 0, fmt.Errorf("budget sizing: no budget between the light statements' %d B, the largest statement's %d B and the working set's %d B", light, largest, total)
	}
	detail("catalog.budget_bytes", "bytes", float64(budget))
	detail("catalog.working_set_bytes", "bytes", float64(total))
	detail("catalog.light_set_bytes", "bytes", float64(light))
	detail("catalog.largest_stmt_bytes", "bytes", float64(largest))
	return budget, nil
}
