package main

import (
	"fmt"
	"time"
)

// Point workload: an open loop over two shop tenants. Most requests repeat
// one of a few dozen lookup texts (prepared-statement cache hits); the
// rest are unique texts (parse and prepare every time), LIMIT probes and
// /stream lookups. The engine does little; parse, prepare, the cache and
// the HTTP/JSON path do most of the work.
const (
	pointRefRate = 100.0 // requests/s of the phase that sets p50_ms and tail_ms
	// pointTailWindow splits the reference phase into windows of about
	// 150 requests, so each window's tail sits near p93: above the
	// lookups' spread, below the few requests a stall of a shared host
	// delays.
	pointTailWindow = 1500 * time.Millisecond
	// pointLimitMS is the ladder's tail limit. It sits well above the
	// tail of a sustainable rate, so a single stall of the host does not
	// fail a step, and well below the tail of an overloaded one.
	pointLimitMS = 250.0
)

// pointLadder is the fixed rate ladder rps is read from, in requests/s.
//
// Its steps keep clear of the capacity measured on a 2-CPU x86-64 host
// (about 1,000-1,200 req/s), so run-to-run noise there does not move the
// answer between steps.
var pointLadder = []float64{300, 600, 2400}

var limitKs = []int{1, 2, 5, 10}

// refDur is how long the reference phase of a point phase of dur lasts:
// two thirds of it, since p50_ms, tail_ms and heavy_p50_ms come from it.
func refDur(dur time.Duration) time.Duration { return dur * 2 / 3 }

// stepDur is how long each ladder step of a point phase of dur lasts.
func stepDur(dur time.Duration) time.Duration {
	return (dur - refDur(dur)) / time.Duration(len(pointLadder))
}

func pointWorkload(seed uint64) *workload {
	names := []string{"shop0", "shop1"}
	w := &workload{refClasses: map[string]bool{"lookup": true, "stream": true, "unique": true, "limit": true}}
	shops := map[string]shop{}
	pools := map[string][]*stmt{}
	for _, n := range names {
		in, sh := genShop(seed, n)
		w.tenants = append(w.tenants, in)
		shops[n] = sh
		r := newRand(seed, "pool/"+n)
		for j := 0; j < pointPool; j++ {
			s := lookup(n, j%lookupKinds, sh, r)
			pools[n] = append(pools[n], s)
			w.warm = append(w.warm, request{Class: "warm", Stmt: s})
		}
		for _, k := range limitKs {
			w.warm = append(w.warm, request{Class: "warm", Stmt: limitProbe(n, k)})
		}
	}
	w.ladder = append(append([]*stmt(nil), pools[names[0]][:lookupKinds]...), limitProbe(names[0], limitKs[2]))

	unique := 0
	gen := func(part string, rate float64, dur time.Duration) []request {
		r := newRand(seed, part)
		var reqs []request
		for _, due := range arrivals(r, rate, dur) {
			t := names[r.IntN(len(names))]
			pool := pools[t]
			var q request
			switch u := r.Float64(); {
			case u < 0.70:
				q = request{Class: "lookup", Stmt: pool[r.IntN(len(pool))]}
			case u < 0.80:
				s := pool[r.IntN(len(pool))]
				for !s.streamable() {
					s = pool[r.IntN(len(pool))]
				}
				q = request{Class: "stream", Stmt: s, Stream: true}
			case u < 0.90:
				unique++
				q = request{Class: "unique", Stmt: uniqueLookup(t, shops[t], r, unique)}
			default:
				q = request{Class: "limit", Stmt: limitProbe(t, limitKs[r.IntN(len(limitKs))])}
			}
			q.Due = due
			reqs = append(reqs, q)
		}
		return reqs
	}

	// The first list is the reference phase, the others the ladder's steps.
	w.schedule = func(dur time.Duration) [][]request {
		lists := [][]request{gen("point/ref", pointRefRate, refDur(dur))}
		for i, rate := range pointLadder {
			step := gen(fmt.Sprintf("point/step%d", i), rate, stepDur(dur))
			for j := range step {
				step[j].Class = "step"
			}
			lists = append(lists, step)
		}
		return lists
	}
	w.measure = func(cl *client, dur time.Duration, lists [][]request, rep *report) []outcome {
		conns := cl.conns()
		ref, steps := lists[0], lists[1:]
		outs := cl.openLoop(time.Now(), ref, conns, 0)
		var lat []float64
		byClass := map[string][]float64{}
		for _, o := range outs {
			if o.err != nil {
				continue
			}
			lat = append(lat, o.latMS)
			byClass[o.class] = append(byClass[o.class], o.latMS)
		}
		heavy := append(byClass["unique"], byClass["limit"]...)
		s := summarize(lat)
		rep.endToEnd("p50_ms", "ms", s.P50)
		rep.endToEnd("tail_ms", "ms", windowedTail("point_tail_ms", ref, outs, refDur(dur), pointTailWindow))
		rep.endToEnd("heavy_p50_ms", "ms", medianOf(heavy))
		detail("point_p50_ms", "ms", s.P50)
		detail(fmt.Sprintf("point_tail_ms whole phase (p%.1f of %d)", s.TailPct, s.N), "ms", s.Tail)
		for _, c := range []string{"lookup", "stream", "unique", "limit"} {
			detail(c+"_p50_ms", "ms", medianOf(byClass[c]))
		}

		// The reference phase is the ladder's first rung.
		maxRPS := 0.0
		if rs := summarize(lat); len(lat) == len(outs) && rs.Tail <= pointLimitMS {
			maxRPS = float64(len(outs)) / refDur(dur).Seconds()
		}
		for i, rs := range steps {
			start := time.Now()
			so := cl.openLoop(start, rs, conns, time.Duration(pointLimitMS*float64(time.Millisecond)))
			span := time.Since(start)
			outs = append(outs, so...)
			var sl []float64
			failed := 0
			for _, o := range so {
				if o.err != nil {
					failed++
					continue
				}
				sl = append(sl, o.latMS)
			}
			st := summarize(sl)
			achieved := float64(len(so)-failed) / span.Seconds()
			// No growing backlog: every scheduled request was sent, and all
			// completed within the latency limit of the step's end.
			ok := len(so) == len(rs) && failed == 0 && st.Tail <= pointLimitMS && span <= stepDur(dur)+time.Duration(pointLimitMS*float64(time.Millisecond))
			detail(fmt.Sprintf("ladder %5.0f rps: achieved, tail %.2f ms, ok=%v", pointLadder[i], st.Tail, ok), "rps", achieved)
			if !ok {
				break
			}
			maxRPS = achieved
		}
		rep.endToEnd("rps", "1/s", maxRPS)
		detail("point_max_rps", "1/s", maxRPS)
		return outs
	}
	return w
}
