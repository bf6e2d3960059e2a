// Command diffsim regenerates the paper's evaluation (section 6): every
// figure and analytic table, plus the ablations documented in DESIGN.md.
//
// Usage:
//
//	diffsim -experiment fig8              # aggregation benefits (Figure 8)
//	diffsim -experiment fig9              # nested queries (Figure 9)
//	diffsim -experiment fig11             # matching cost (Figures 10/11)
//	diffsim -experiment model             # section 6.1 traffic model
//	diffsim -experiment energy            # section 6.1 energy model
//	diffsim -experiment micro             # section 4.3 micro-diffusion budget
//	diffsim -experiment sweep-exploratory # ablation: exploratory cadence
//	diffsim -experiment sweep-asymmetry   # ablation: link asymmetry
//	diffsim -experiment ablate-negrf      # ablation: negative reinforcement
//	diffsim -experiment duty-cycle        # measured duty-cycle trade-off
//	diffsim -experiment scale             # grid scalability sweep
//	diffsim -experiment push-pull         # one-phase push vs two-phase pull
//	diffsim -experiment latency           # §6.1 aggregation latency claim
//	diffsim -experiment breakdown         # Fig.8 byte decomposition vs model
//	diffsim -experiment sweep-capture     # ablation: radio capture effect
//	diffsim -experiment churn             # fault injection: relay kill + MTBF/MTTR churn
//	diffsim -experiment ferry             # disruption tolerance: custody transfer vs baseline
//	diffsim -experiment broker            # million-subscription node on the inverted match index
//	diffsim -experiment all               # everything above
//
// -quick shrinks runs for a fast smoke pass; -seeds and -duration override
// the repetition count and per-run virtual time of the simulated
// experiments. For the churn experiment, -metrics prints the first seed's
// end-of-run per-layer metrics snapshot and -trace-out FILE exports its
// relay-kill message trace as JSONL for cmd/difftrace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"diffusion/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "which experiment to run (fig8, fig9, fig11, model, energy, micro, sweep-exploratory, sweep-asymmetry, ablate-negrf, duty-cycle, scale, push-pull, latency, breakdown, sweep-capture, churn, ferry, broker, all)")
		quick      = flag.Bool("quick", false, "shrink runs for a fast smoke pass")
		seeds      = flag.Int("seeds", 0, "override the number of repetitions")
		duration   = flag.Duration("duration", 0, "override the per-run virtual duration")
		metrics    = flag.Bool("metrics", false, "print the end-of-run per-layer metrics snapshot (churn experiment, first seed)")
		traceOut   = flag.String("trace-out", "", "export the churn experiment's first-seed relay-kill trace as JSONL to this file (analyze with difftrace)")
		traceSamp  = flag.Float64("trace-sample", 0, "flight-path sampling rate [0,1] for the -trace-out export (difftrace paths/latency)")
	)
	flag.Parse()

	if err := run(os.Stdout, *experiment, *quick, *seeds, *duration, *metrics, *traceOut, *traceSamp); err != nil {
		fmt.Fprintln(os.Stderr, "diffsim:", err)
		os.Exit(1)
	}
}

func seedList(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

func run(w io.Writer, experiment string, quick bool, seeds int, duration time.Duration, metrics bool, traceOut string, traceSamp float64) error {
	if traceSamp < 0 || traceSamp > 1 {
		return fmt.Errorf("-trace-sample %v out of range [0,1]", traceSamp)
	}
	sep := func() { fmt.Fprintln(w) }

	fig8 := func() {
		cfg := experiments.DefaultFig8()
		if quick {
			cfg.Seeds = seedList(2)
			cfg.Duration = 10 * time.Minute
		}
		if seeds > 0 {
			cfg.Seeds = seedList(seeds)
		}
		if duration > 0 {
			cfg.Duration = duration
		}
		experiments.PrintFig8(w, experiments.RunFig8(cfg))
	}
	fig9 := func() {
		cfg := experiments.DefaultFig9()
		if quick {
			cfg.Seeds = seedList(2)
			cfg.Duration = 10 * time.Minute
		}
		if seeds > 0 {
			cfg.Seeds = seedList(seeds)
		}
		if duration > 0 {
			cfg.Duration = duration
		}
		experiments.PrintFig9(w, experiments.RunFig9(cfg))
	}
	fig11 := func() {
		cfg := experiments.DefaultFig11()
		if quick {
			cfg.Iterations = 100
			cfg.Shuffles = 50
		}
		experiments.PrintFig11(w, experiments.RunFig11(cfg))
	}
	sweepExploratory := func() {
		sl, d := seedList(3), 20*time.Minute
		if quick {
			sl, d = seedList(1), 10*time.Minute
		}
		if seeds > 0 {
			sl = seedList(seeds)
		}
		if duration > 0 {
			d = duration
		}
		experiments.PrintExploratorySweep(w,
			experiments.RunExploratorySweep(sl, d, []int{2, 5, 10, 20, 50}))
	}
	sweepAsymmetry := func() {
		sl, d := seedList(3), 20*time.Minute
		if quick {
			sl, d = seedList(2), 10*time.Minute
		}
		if seeds > 0 {
			sl = seedList(seeds)
		}
		if duration > 0 {
			d = duration
		}
		experiments.PrintAsymmetrySweep(w,
			experiments.RunAsymmetrySweep(sl, d, []float64{0, 0.8, 2, 4}))
	}
	dutyCycle := func() {
		sl, d := seedList(3), 20*time.Minute
		if quick {
			sl, d = seedList(2), 10*time.Minute
		}
		if seeds > 0 {
			sl = seedList(seeds)
		}
		if duration > 0 {
			d = duration
		}
		experiments.PrintDutyCycleSweep(w,
			experiments.RunDutyCycleSweep(sl, d, []float64{1.0, 0.5, 0.22, 0.15, 0.10}))
	}
	scale := func() {
		sl, d := seedList(3), 15*time.Minute
		sizes := []int{3, 4, 5, 6, 7}
		if quick {
			sl, d = seedList(1), 10*time.Minute
			sizes = []int{3, 5}
		}
		if seeds > 0 {
			sl = seedList(seeds)
		}
		if duration > 0 {
			d = duration
		}
		experiments.PrintScaleSweep(w, experiments.RunScaleSweep(sl, d, sizes))
	}
	pushPull := func() {
		sl, d := seedList(3), 20*time.Minute
		if quick {
			sl, d = seedList(2), 10*time.Minute
		}
		if seeds > 0 {
			sl = seedList(seeds)
		}
		if duration > 0 {
			d = duration
		}
		experiments.PrintPushPull(w, experiments.RunPushPull(sl, d, []int{1, 2, 3, 4}))
	}
	latency := func() {
		sl, d := seedList(3), 20*time.Minute
		if quick {
			sl, d = seedList(2), 10*time.Minute
		}
		if seeds > 0 {
			sl = seedList(seeds)
		}
		if duration > 0 {
			d = duration
		}
		window := 500 * time.Millisecond
		experiments.PrintLatency(w, experiments.RunLatency(sl, d, window), window)
	}
	sweepCapture := func() {
		sl, d := seedList(3), 20*time.Minute
		if quick {
			sl, d = seedList(2), 10*time.Minute
		}
		if seeds > 0 {
			sl = seedList(seeds)
		}
		if duration > 0 {
			d = duration
		}
		experiments.PrintCaptureSweep(w,
			experiments.RunCaptureSweep(sl, d, []float64{0, 0.5, 0.7, 0.85, 0.95}))
	}
	breakdown := func() {
		sl, d := seedList(3), 30*time.Minute
		if quick {
			sl, d = seedList(2), 10*time.Minute
		}
		if seeds > 0 {
			sl = seedList(seeds)
		}
		if duration > 0 {
			d = duration
		}
		experiments.PrintBreakdown(w, experiments.RunBreakdown(sl, d, 4))
	}
	negrf := func() {
		sl, d := seedList(3), 20*time.Minute
		if quick {
			sl, d = seedList(2), 10*time.Minute
		}
		if seeds > 0 {
			sl = seedList(seeds)
		}
		if duration > 0 {
			d = duration
		}
		experiments.PrintNegRFAblation(w, experiments.RunNegRFAblation(sl, d))
	}

	broker := func() {
		cfg := experiments.DefaultBroker()
		if quick {
			cfg.Sizes = []int{1000, 10000}
			cfg.Msgs = 200
		}
		experiments.PrintBroker(w, experiments.RunBroker(cfg))
	}

	ferry := func() {
		cfg := experiments.DefaultFerry()
		if quick {
			cfg.Seeds = seedList(2)
			cfg.Duration = 6 * time.Minute
		}
		if seeds > 0 {
			cfg.Seeds = seedList(seeds)
		}
		if duration > 0 {
			cfg.Duration = duration
		}
		experiments.PrintFerry(w, experiments.RunFerry(cfg))
	}

	churn := func() error {
		cfg := experiments.DefaultChurn()
		if quick {
			cfg.Seeds = seedList(2)
			cfg.Duration = 12 * time.Minute
			cfg.KillAt = 6 * time.Minute
		}
		if seeds > 0 {
			cfg.Seeds = seedList(seeds)
		}
		if duration > 0 {
			cfg.Duration = duration
			cfg.KillAt = duration / 2
		}
		experiments.PrintChurn(w, experiments.RunRelayKill(cfg), experiments.RunChurnSweep(cfg))
		if !metrics && traceOut == "" {
			return nil
		}
		// Re-run the first seed traced: the tap is pass-through, so with
		// sampling off the traced run reproduces the printed one exactly.
		// -trace-sample > 0 adds flight-path spans to the export at the
		// cost of extra per-origination random draws (the traced re-run's
		// jitter then differs from the printed run's).
		cfg.TraceSampling = traceSamp
		_, tr, snap := experiments.RunRelayKillTraced(cfg, cfg.Seeds[0])
		if metrics {
			fmt.Fprintln(w)
			snap.Write(w)
		}
		if traceOut != "" {
			f, err := os.Create(traceOut)
			if err != nil {
				return err
			}
			if err := tr.ExportJSONL(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(w, "\ntrace: %d records (seed %d) written to %s\n",
				tr.Len()+len(tr.Faults()), cfg.Seeds[0], traceOut)
		}
		return nil
	}

	// The experiment registry drives both dispatch and the unknown-name
	// error, so the two cannot drift apart. Order is the "all" run order.
	registry := []struct {
		name string
		run  func() error
	}{
		{"fig8", func() error { fig8(); return nil }},
		{"fig9", func() error { fig9(); return nil }},
		{"fig11", func() error { fig11(); return nil }},
		{"model", func() error { experiments.PrintTrafficModel(w); return nil }},
		{"energy", func() error { experiments.PrintEnergyModel(w); return nil }},
		{"micro", func() error { experiments.PrintMicroFootprint(w); return nil }},
		{"sweep-exploratory", func() error { sweepExploratory(); return nil }},
		{"sweep-asymmetry", func() error { sweepAsymmetry(); return nil }},
		{"ablate-negrf", func() error { negrf(); return nil }},
		{"duty-cycle", func() error { dutyCycle(); return nil }},
		{"scale", func() error { scale(); return nil }},
		{"push-pull", func() error { pushPull(); return nil }},
		{"latency", func() error { latency(); return nil }},
		{"breakdown", func() error { breakdown(); return nil }},
		{"sweep-capture", func() error { sweepCapture(); return nil }},
		{"churn", churn},
		{"ferry", func() error { ferry(); return nil }},
		{"broker", func() error { broker(); return nil }},
	}

	if experiment == "all" {
		for i, e := range registry {
			if i > 0 {
				sep()
			}
			if err := e.run(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range registry {
		if e.name == experiment {
			return e.run()
		}
	}
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return fmt.Errorf("unknown experiment %q (want %s, or all)",
		experiment, strings.Join(names, ", "))
}
