// Command tnbench measures simulator throughput across the paper's
// operating grid (firing rate × active synapses per neuron, Section V) and
// writes the dated evidence file BENCH_<date>.json.
//
// Each operating point runs three arms on identical networks: the chip
// engine with the active-neuron Neuron-phase kernel, the same engine with
// the dense full-scan baseline forced (isolating the kernel's speedup), and
// the parallel compass engine. The arms are cross-checked event-for-event;
// a throughput number from a diverged simulation is an error, not a result.
//
// With -serve it instead measures the serving plane: how many
// concurrently paced sessions one process holds at rate on the pooled
// timing-wheel scheduler, with p99 command latency — written to
// BENCH_SERVE_<date>.json.
//
// Usage:
//
//	tnbench                  # full sweep, writes BENCH_<date>.json
//	tnbench -smoke           # small CI configuration
//	tnbench -grid 4 -rates 2,20 -syns 0,64 -o /tmp/bench.json
//	tnbench -serve           # serving sweep, writes BENCH_SERVE_<date>.json
//	tnbench -serve -smoke    # serving smoke (CI)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"truenorth/internal/bench"
)

func main() {
	var (
		serveMode = flag.Bool("serve", false, "run the serving sweep (sessions × ticks/sec × command latency) instead of the engine sweep")
		sessions  = flag.String("sessions", "", "-serve: comma-separated session counts, ascending (empty: configuration default)")
		rate      = flag.Float64("rate", 0, "-serve: per-session paced rate in Hz (0: configuration default)")
		window    = flag.Duration("window", 0, "-serve: measured window per point (0: configuration default)")
		grid      = flag.Int("grid", 0, "core mesh edge N for an N×N grid (0: configuration default)")
		rates     = flag.String("rates", "", "comma-separated firing rates in Hz (empty: configuration default)")
		syns      = flag.String("syns", "", "comma-separated synapse counts per neuron (empty: configuration default)")
		driven    = flag.Float64("driven", -1, "fraction of event-driven relay neurons, 0..1 (-1: configuration default)")
		settle    = flag.Int("settle", -1, "settling ticks before measurement (-1: configuration default)")
		measure   = flag.Int("measure", -1, "measured ticks per arm (-1: configuration default)")
		workers   = flag.Int("workers", 0, "compass worker count (0: configuration default)")
		seed      = flag.Int64("seed", 0, "network construction seed (0: configuration default)")
		smoke     = flag.Bool("smoke", false, "run the small CI smoke configuration")
		out       = flag.String("o", "", "output path (empty: BENCH_<date>.json in the working directory)")
		quiet     = flag.Bool("q", false, "suppress per-point progress lines")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}

	if *serveMode {
		runServe(*smoke, *sessions, *rate, *window, *workers, *out, logf)
		return
	}

	cfg := bench.DefaultConfig()
	if *smoke {
		cfg = bench.SmokeConfig()
	}
	if *grid > 0 {
		cfg.Grid.W, cfg.Grid.H = *grid, *grid
	}
	if *rates != "" {
		v, err := parseFloats(*rates)
		if err != nil {
			fatalf("-rates: %v", err)
		}
		cfg.Rates = v
	}
	if *syns != "" {
		v, err := parseInts(*syns)
		if err != nil {
			fatalf("-syns: %v", err)
		}
		cfg.Syns = v
	}
	if *driven >= 0 {
		cfg.DrivenFraction = *driven
	}
	if *settle >= 0 {
		cfg.SettleTicks = *settle
	}
	if *measure >= 0 {
		cfg.MeasureTicks = *measure
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	rep, err := bench.Run(cfg, logf)
	if err != nil {
		fatalf("%v", err)
	}

	path := *out
	if path == "" {
		path = bench.Filename()
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s: grid %s (%d neurons), %d points\n", path, rep.Grid, rep.Neurons, len(rep.Points))
	fmt.Printf("kernel speedup (chip vs full scan): %.2fx at sparse points, %.2fx best\n",
		rep.Summary.SparseKernelSpeedup, rep.Summary.BestKernelSpeedup)
	fmt.Printf("peak chip throughput: %.3g SOPS\n", rep.Summary.PeakChipSOPS)
}

// runServe executes the serving sweep and writes BENCH_SERVE_<date>.json.
func runServe(smoke bool, sessions string, rate float64, window time.Duration, workers int, out string, logf func(string, ...any)) {
	cfg := bench.DefaultServeConfig()
	if smoke {
		cfg = bench.ServeSmokeConfig()
	}
	if sessions != "" {
		v, err := parseInts(sessions)
		if err != nil {
			fatalf("-sessions: %v", err)
		}
		cfg.Sessions = v
	}
	if rate > 0 {
		cfg.RateHz = rate
	}
	if window > 0 {
		cfg.Window = window
	}
	if workers > 0 {
		cfg.Workers = workers
	}
	rep, err := bench.RunServe(cfg, logf)
	if err != nil {
		fatalf("%v", err)
	}
	path := out
	if path == "" {
		path = bench.ServeFilename()
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fatalf("%v", err)
	}
	s := rep.Summary
	fmt.Printf("wrote %s: %d points at %.0f Hz/session\n", path, len(rep.Points), rep.RateHz)
	fmt.Printf("sustained sessions at rate: %d; peak aggregate ticks/sec %.3g; p99 at capacity %.2f ms\n",
		s.SchedulerMaxSessions, s.SchedulerPeakTicksPerSec, s.SchedulerP99AtMaxMs)
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tnbench: "+format+"\n", args...)
	os.Exit(1)
}
