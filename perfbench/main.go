// Command perfbench is the repository's benchmark: four workloads over the
// simulator and the live UDP data plane, each printing its end-to-end
// metrics (or, with --trace 1, its per-layer metrics) as one JSON object
// on the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
)

type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator or of a live node sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_ms_per_vmin", "ms"},
	{"allocs_per_vmin", "count"},
	{"peak_heap_mb", "MB"},
	{"delivered_frac", "ratio"},
	{"bytes_per_event", "B"},
	{"cpu_us_per_msg", "us"},
	{"allocs_per_msg", "count"},
}

// perLayer is what the traced run reports in its JSON result, one group
// per module. The latency percentiles and capacity are end-to-end measures
// reported here, without a bound: on a host whose vCPUs stall at random
// and whose load from other tenants shifts for minutes at a time, they
// swing by a third to a factor of eight between runs of the same code (see
// README.md). A layer that a workload does not run reads 0, so every time
// in this list is one that all gated workloads measure; self time of a
// layer only one kind of workload runs is given as a share of the traced
// pass's busy time, and in milliseconds in tableOnly.
var perLayer = []metricDef{
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"capacity_msgs_s", "msg/s"},
	{"sim.events", "count"},
	{"sim.self_frac", "ratio"},
	{"radio.callbacks", "count"},
	{"radio.self_frac", "ratio"},
	{"radio.frames_tx", "count"},
	{"radio.receptions", "count"},
	{"radio.collisions", "count"},
	{"mac.callbacks", "count"},
	{"mac.self_frac", "ratio"},
	{"mac.fragments_tx", "count"},
	{"mac.backoffs", "count"},
	{"mac.queue_drops", "count"},
	{"link.send_calls", "count"},
	{"link.send_us_p50", "us"},
	{"link.send_us_p99", "us"},
	{"core.receive_calls", "count"},
	{"core.receive_self_ms", "ms"},
	{"core.receive_us_p50", "us"},
	{"core.receive_us_p99", "us"},
	{"core.timer_self_ms", "ms"},
	{"core.send_self_ms", "ms"},
	{"core.duplicates", "count"},
	{"core.neg_reinforcements", "count"},
	{"core.data_no_path", "count"},
	{"core.custody_captured", "count"},
	{"match.lookups", "count"},
	{"match.candidates_per_lookup", "count"},
	{"match.fallback_scans", "count"},
	{"filters.calls", "count"},
	{"filters.self_frac", "ratio"},
	{"transport.datagrams_rx", "count"},
	{"transport.custody_retransmits", "count"},
	{"transport.drops", "count"},
	{"rt.post_wait_frac", "ratio"},
	{"rt.queue_depth_max", "count"},
	{"custody.syncs_per_msg", "count"},
	{"custody.shed", "count"},
	{"custody.replayed", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "ratio"},
	{"residual_frac", "ratio"},
	{"failed_frac", "ratio"},
}

// tableOnly are the traced run's times that only one kind of workload
// measures. They are printed in the table above the JSON result.
var tableOnly = []metricDef{
	{"sim.self_ms", "ms"},
	{"sim.ns_per_event", "ns"},
	{"radio.self_ms", "ms"},
	{"mac.self_ms", "ms"},
	{"mac.send_us", "us"},
	{"filters.self_ms", "ms"},
	{"transport.send_us_p50", "us"},
	{"transport.send_us_p99", "us"},
	{"rt.post_wait_us_p50", "us"},
	{"rt.post_wait_us_p99", "us"},
	{"custody.accept_us_p50", "us"},
	{"custody.accept_us_p99", "us"},
	{"custody.journal_us_p50", "us"},
	{"custody.journal_us_p99", "us"},
	{"gen.late_ms", "ms"},
}

func zeroPerLayer() map[string]float64 {
	m := map[string]float64{}
	for _, d := range slices.Concat(perLayer, tableOnly) {
		m[d.name] = 0
	}
	return m
}

// result is one run's verdict and metrics.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

var workloads = []string{"grid1024", "testbed-fig8", "relay-plain", "relay-custody"}

func main() {
	workload := flag.String("workload", "", "one of grid1024, testbed-fig8, relay-plain, relay-custody")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// The generator, three node loops and the transport readers share the
	// host's cores; the runtime uses no more threads for Go code than
	// there are CPUs.
	runtime.GOMAXPROCS(runtime.NumCPU())

	var res result
	var err error
	traced := *trace == 1
	switch *workload {
	case "grid1024":
		res = runSimWorkload(grid1024, *seed, *seconds, traced)
	case "testbed-fig8":
		res = runSimWorkload(testbedFig8, *seed, *seconds, traced)
	case "relay-plain":
		res, err = runLiveWorkload(relayPlain, *seed, *seconds, traced)
	case "relay-custody":
		res, err = runLiveWorkload(relayCustody, *seed, *seconds, traced)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if res.attempted < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: nothing attempted\n", *workload)
		os.Exit(1)
	}
	defs, table := endToEnd, []metricDef(nil)
	if traced {
		defs, table = perLayer, tableOnly
		res.metrics["failed_frac"] = float64(res.failed) / float64(res.attempted)
	}
	if err := report(os.Stdout, *workload, res, defs, table); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints one line per metric of defs and table, and then the JSON
// result line with the metrics of defs.
func report(f *os.File, workload string, res result, defs, table []metricDef) error {
	out := jsonResult{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]jsonMetric{}}
	for i, d := range slices.Concat(defs, table) {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", workload, d.name, v)
		}
		if i < len(defs) {
			out.Metrics[d.name] = jsonMetric{v, d.unit}
		}
		fmt.Fprintf(f, "%-14s %-30s %16.6f %s\n", workload, d.name, v, d.unit)
	}
	fmt.Fprintf(f, "%-14s correct=%v attempted=%d failed=%d\n", workload, res.correct, res.attempted, res.failed)
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}
