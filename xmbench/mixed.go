package main

import (
	"fmt"
	"sync"
	"time"
)

// Mixed workload: an open loop on one tenant whose catalog budget holds
// its lookups' indexes together but not the grid's beside them. One
// connection carries point lookups; the other carries grid joins, every
// other one under a deadline. Point requests queue behind grid runs at
// admission, every grid run evicts lookup indexes that the next lookups
// rebuild, and post-engine work sets how far deadline-bounded requests
// overshoot.
const (
	mixedPointRate = 80.0                   // lookups/s
	mixedPeriod    = 250 * time.Millisecond // between grid requests
	mixedLimitMS   = 50.0                   // a lookup slower than this misses, for rps
	mixedPool      = 60                     // lookup texts, all held by the prepared-statement cache
	mixedKinds     = 3                      // lookup kinds 0-2 of lookup
	// mixedTailWindow splits the lookups into windows of about 400, so
	// each window's tail sits near p97.5, well inside the lookups that
	// queued behind a grid run (about a seventh of them).
	mixedTailWindow = 5 * time.Second
)

// mixedDeadlines range from below the engine's share of a grid run, so the
// deadline gate stops morsels, to above it, so only post-engine work runs
// past the deadline.
var mixedDeadlines = []int{1, 5, 20}

func mixedWorkload(seed uint64) *workload {
	const t = "mix"
	in, sh := genShop(seed, t)
	in.Tables = append(in.Tables, genGrid(seed, t, mixedScale)...)
	r := newRand(seed, "pool/"+t)
	var pool []*stmt
	// Row lookups only (no COUNT kinds): their service times are close, so
	// the lookup median measures queueing rather than the kind mix.
	for j := 0; j < mixedPool; j++ {
		pool = append(pool, lookup(t, j%mixedKinds, sh, r))
	}
	grid := gridStmt(t)
	w := &workload{
		tenants:     []tenantInput{in},
		budgeted:    t,
		budgetLight: pool,
		budgetHeavy: []*stmt{grid},
		ladder:      append(append([]*stmt(nil), pool[:mixedKinds]...), grid),
		refClasses:  map[string]bool{"lookup": true},
	}
	for _, s := range append(append([]*stmt(nil), pool...), grid) {
		w.warm = append(w.warm, request{Class: "warm", Stmt: s})
	}
	w.schedule = func(dur time.Duration) [][]request {
		rp, rh := newRand(seed, "mixed/point"), newRand(seed, "mixed/heavy")
		var points, heavy []request
		for _, due := range arrivals(rp, mixedPointRate, dur) {
			points = append(points, request{Class: "lookup", Stmt: pool[rp.IntN(len(pool))], Due: due})
		}
		// Grid requests arrive on a fixed period with seeded jitter, full
		// and deadline-bounded in turn, so every seed loads the server
		// alike.
		for i := 0; ; i++ {
			due := time.Duration(i)*mixedPeriod + time.Duration(rh.Float64()*float64(mixedPeriod)/2)
			if due >= dur {
				break
			}
			q := request{Class: "grid", Stmt: grid, Due: due}
			if i%2 == 1 {
				q.Class, q.Deadline = "deadline", mixedDeadlines[rh.IntN(len(mixedDeadlines))]
			}
			heavy = append(heavy, q)
		}
		return [][]request{points, heavy}
	}
	w.measure = func(cl *client, dur time.Duration, lists [][]request, rep *report) []outcome {
		points, heavy := lists[0], lists[1]
		start := time.Now()
		var po, ho []outcome
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); po = cl.openLoop(start, points, 1, 0) }()
		go func() { defer wg.Done(); ho = cl.openLoop(start, heavy, 1, 0) }()
		wg.Wait()
		elapsed := time.Since(start)

		var lat, grids, over []float64
		good := 0
		for _, o := range po {
			if o.err == nil {
				lat = append(lat, o.latMS)
				if o.latMS <= mixedLimitMS {
					good++
				}
			}
		}
		cancelled := 0
		for _, o := range ho {
			switch {
			case o.err != nil:
			case o.deadline > 0:
				over = append(over, o.sendMS-float64(o.deadline))
				if o.cancelled {
					cancelled++
				}
			default:
				grids = append(grids, o.latMS)
			}
		}
		s, os := summarize(lat), summarize(over)
		rep.endToEnd("p50_ms", "ms", s.P50)
		rep.endToEnd("tail_ms", "ms", windowedTail("point_tail_ms", points, po, dur, mixedTailWindow))
		rep.endToEnd("heavy_p50_ms", "ms", medianOf(grids))
		rep.endToEnd("rps", "1/s", float64(good)/elapsed.Seconds())
		detail("point_p50_ms", "ms", s.P50)
		detail(fmt.Sprintf("point_tail_ms (p%.1f of %d)", s.TailPct, s.N), "ms", s.Tail)
		detail(fmt.Sprintf("grid_p50_ms (of %d)", len(grids)), "ms", medianOf(grids))
		detail("deadline_overshoot_p50_ms", "ms", os.P50)
		detail(fmt.Sprintf("deadline_overshoot_tail_ms (p%.1f of %d)", os.TailPct, os.N), "ms", os.Tail)
		detail(fmt.Sprintf("deadline requests cancelled (of %d)", len(over)), "count", float64(cancelled))
		return append(po, ho...)
	}
	return w
}
