// Command xmbench is the seeded end-to-end benchmark of xmserve. It
// generates every tenant's data and every request stream from -seed,
// self-hosts server.New in process, drives one workload over loopback
// HTTP, checks every answer against an oracle computed with the
// per-model baseline join, and prints its metrics. With -trace 1 it also
// replays the workload's statements down a ladder of public entry points
// (xmjoin.PreparedQuery, mmql.Prepared, Server.ServeHTTP, loopback HTTP)
// and reports each layer's self time and counters.
//
//	go run . -workload point|analytic|mixed -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Lines before it give
// every metric by name with its unit, the per-class figures behind them,
// and the host the numbers come from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's verdicts and metrics.
type report struct {
	attempted, failed, wrong int
	e2e, layer               map[string]metric
	errs                     map[string]int
	steal                    float64 // host CPU steal share over the measured load
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layer: map[string]metric{}, errs: map[string]int{}}
}

func (r *report) endToEnd(name, unit string, v float64) {
	r.e2e[name] = metric{noSamples(name, v), unit}
}
func (r *report) perLayer(name, unit string, v float64) {
	r.layer[name] = metric{noSamples(name, v), unit}
}

// noSamples reports 0 for a figure with no samples behind it (NaN), which
// JSON cannot carry, and says so.
func noSamples(name string, v float64) float64 {
	if math.IsNaN(v) {
		fmt.Fprintf(os.Stderr, "xmbench: %s has no samples; reporting 0\n", name)
		return 0
	}
	return v
}

// detail prints a figure that is not one of the JSON metrics.
func detail(name, unit string, v float64) { fmt.Printf("  %-34s %12.4f %s\n", name, v, unit) }

// tally folds outcomes into the verdict counts; refused requests count as
// failed, wrong answers as failed and incorrect.
func (r *report) tally(outs []outcome) {
	for i := range outs {
		o := &outs[i]
		r.attempted++
		if o.err == nil {
			continue
		}
		r.failed++
		if !o.refused {
			r.wrong++
		}
		if r.errs[o.class] == 0 {
			fmt.Fprintf(os.Stderr, "xmbench: %s request failed: %v\n", o.class, o.err)
		}
		r.errs[o.class]++
	}
}

func main() {
	name := flag.String("workload", "", "point, analytic or mixed")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans-out", "", "traced run: write the recorded spans here as JSON lines")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "xmbench: usage: -workload point|analytic|mixed -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	r, err := run(mk(*seed), *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmbench:", err)
		os.Exit(1)
	}
	hostLine(*name, *seed, *trace, r.steal)
	ms := r.e2e
	if *trace == 1 {
		ms = r.layer
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
	fmt.Printf("failed_frac %.6f (%d of %d)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	out, err := json.Marshal(map[string]any{
		"correct": r.wrong == 0, "attempted": r.attempted, "failed": r.failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "xmbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// hostLine records where the numbers come from, so a run on one CPU is
// never read as parallel scaling and a run on a busy host stands out.
func hostLine(workload string, seed uint64, trace int, steal float64) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	h, _ := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "trace": trace, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "commit": commit,
		"goos": runtime.GOOS, "goarch": runtime.GOARCH, "cpu_steal_frac": steal,
	})
	fmt.Printf("host %s\n", h)
}
