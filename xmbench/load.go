package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// openLoop sends reqs, ordered by Due, from conns goroutines: each takes
// the next request in schedule order, waits until it is due, and sends
// it. A request sent late is still timed from its due time, so a stall
// charges every request queued behind it. With shedAfter > 0 the loop
// stops once a request is that late, leaving the rest unsent (an
// overloaded ladder step has failed by then); it returns the outcomes of
// the requests it sent.
func (c *client) openLoop(start time.Time, reqs []request, conns int, shedAfter time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	sent := make([]bool, len(reqs))
	var next atomic.Int64
	var shed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !shed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				due := start.Add(reqs[i].Due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				} else if shedAfter > 0 && -d > shedAfter {
					shed.Store(true)
					return
				}
				out[i], sent[i] = c.do(&reqs[i], due), true
			}
		}()
	}
	wg.Wait()
	kept := out[:0]
	for i := range out {
		if sent[i] {
			kept = append(kept, out[i])
		}
	}
	return kept
}

// windowedTail splits an open-loop phase of dur by due time into windows
// of about window each and returns the median of the windows' tails. The
// tail of one window can hold a stall of the host; their median does not
// move with a stall or two. outs[i] is the outcome of reqs[i]; failed
// requests have no latency.
func windowedTail(name string, reqs []request, outs []outcome, dur, window time.Duration) float64 {
	n := max(1, int(dur/window))
	windows := make([][]float64, n)
	for i, o := range outs {
		if o.err == nil {
			k := min(int(reqs[i].Due*time.Duration(n)/dur), n-1)
			windows[k] = append(windows[k], o.latMS)
		}
	}
	var tails []float64
	for k, ws := range windows {
		t := summarize(ws)
		tails = append(tails, t.Tail)
		detail(fmt.Sprintf("%s window %d (p%.1f of %d)", name, k, t.TailPct, t.N), "ms", t.Tail)
	}
	return medianOf(tails)
}

// expectAll computes every oracle answer up front, so the measured phase
// only reads the oracle.
func (c *client) expectAll(reqs []request) error {
	for i := range reqs {
		if _, err := c.or.expect(reqs[i].Stmt); err != nil {
			return err
		}
	}
	return nil
}

// sampler tracks the heap and the allocation and GC counters of the
// whole process over a measured phase. The heap peak is taken per window
// of sampleWindow and reported as the median window's peak: one GC cycle
// landing on a burst moves a single peak, not the median of many.
type sampler struct {
	stop, done chan struct{}
	peaks      []float64 // per window, bytes
	start      [3]uint64
	cpu        [2]uint64 // steal and total CPU time of the host at the start
}

const sampleWindow = time.Second

var sampled = []string{"/memory/classes/heap/objects:bytes", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readMetrics() [3]uint64 {
	s := make([]metrics.Sample, len(sampled))
	for i, n := range sampled {
		s[i].Name = n
	}
	metrics.Read(s)
	var v [3]uint64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			v[i] = s[i].Value.Uint64()
		}
	}
	return v
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), start: readMetrics(), cpu: hostCPU()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		peak, since := s.start[0], time.Now()
		for {
			select {
			case <-s.stop:
				s.peaks = append(s.peaks, float64(peak))
				return
			case <-t.C:
				peak = max(peak, readMetrics()[0])
				if time.Since(since) >= sampleWindow {
					s.peaks = append(s.peaks, float64(peak))
					peak, since = 0, time.Now()
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the median window's peak heap in MB,
// the bytes allocated and GC cycles run since the start, and the share of
// the host's CPU time stolen by its hypervisor meanwhile.
func (s *sampler) finish() (peakMB float64, allocs, cycles uint64, steal float64) {
	close(s.stop)
	<-s.done
	end, cpu := readMetrics(), hostCPU()
	steal = ratio(float64(cpu[0]-s.cpu[0]), float64(cpu[1]-s.cpu[1]))
	return medianOf(s.peaks) / (1 << 20), end[1] - s.start[1], end[2] - s.start[2], steal
}

// hostCPU reads the steal and total CPU time of the host from /proc/stat,
// in clock ticks; zeros where the file is missing. Time a virtual
// machine's CPUs spend running other guests slows every figure of a run,
// so the host line records it.
func hostCPU() [2]uint64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return [2]uint64{}
	}
	var v [2]uint64
	for i, x := range f[1:] {
		n, _ := strconv.ParseUint(x, 10, 64)
		if i == 7 {
			v[0] = n
		}
		v[1] += n
	}
	return v
}

// tenantTotals sums the /tenants counters over every tenant.
type tenantTotals struct {
	prepHits, prepMisses, rejected         int64
	catHits, catMisses, catEvict, resident int64
}

func (c *client) tenantTotals() (tenantTotals, error) {
	var t tenantTotals
	resp, err := c.hc.Get(c.base + "/tenants")
	if err != nil {
		return t, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return t, fmt.Errorf("/tenants: %s", resp.Status)
	}
	var sums []server.TenantSummary
	if err := json.NewDecoder(resp.Body).Decode(&sums); err != nil {
		return t, fmt.Errorf("/tenants: %w", err)
	}
	for _, s := range sums {
		t.prepHits += s.Prepared.Hits
		t.prepMisses += s.Prepared.Misses
		t.rejected += s.Admission.Rejected
		t.catHits += s.Catalog.Hits
		t.catMisses += s.Catalog.Misses
		t.catEvict += s.Catalog.Evictions
		t.resident += s.Catalog.ResidentBytes
	}
	return t, nil
}

func (t tenantTotals) minus(u tenantTotals) tenantTotals {
	return tenantTotals{
		prepHits: t.prepHits - u.prepHits, prepMisses: t.prepMisses - u.prepMisses, rejected: t.rejected - u.rejected,
		catHits: t.catHits - u.catHits, catMisses: t.catMisses - u.catMisses, catEvict: t.catEvict - u.catEvict,
		resident: t.resident,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
