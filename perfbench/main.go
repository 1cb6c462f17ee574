// Command perfbench is the repository's benchmark: it measures the
// TrueNorth/Compass reproduction end to end on three seeded workloads and,
// in a separate traced run, splits the time by layer. See README.md.
//
//	go run . --workload syn-heavy --seed 20140613 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics (end-to-end metrics untraced, per-layer metrics
// traced).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// DefaultSeed is the seed results are quoted at; HeldOutSeed is kept back
// for confirming a claimed gain on inputs it was not tuned on.
const (
	DefaultSeed = 20140613
	HeldOutSeed = 1984
)

// workload is one benchmark input set. Every workload measures its network
// on both engines and serves sessions over HTTP, so every run reports every
// end-to-end metric; what differs is which layer dominates.
type workload struct {
	name string
	// The engine network: grid×grid cores of netgen at rateHz × syn, with
	// the trailing driven fraction of each core's neurons built as relays,
	// and faults disabled cores chosen by the seed.
	grid   int
	rateHz float64
	syn    int
	driven float64
	faults int
	settle int // ticks before recording
	window int // ticks per timed engine window (about 0.1 s of chip time)
	gate   int // ticks recorded and replayed on an untraced run
	trace  int // ticks recorded and replayed on a traced run
	// share of the measured time spent on the engines. The engine rates are
	// steady on few windows; the rest serves, where the inject→output tail
	// rests on 30 probe samples a second.
	share float64
	// Served load sessions: sessions > 0 hosts that many copies of the
	// network generated over HTTP from netgen specs, each with its own
	// seed; 0 hosts the engine network itself, faults included, as one
	// session. They are paced at servedHz, well inside what the host
	// sustains: a heavy session's dispatches hold a scheduler worker, and
	// at 1 kHz (syn-heavy) or 200 Hz (fault-route) the command tail and CPU
	// per tick tracked every shift in host speed. A fault-route tick costs
	// about 2.7 ms, and whatever share of commands waits for the session's
	// dispatch puts a knee in the latency distribution that moves with host
	// speed: at 100 Hz (27% busy) it sat at the command p80, at 50 Hz at
	// the inject→output p95, and a gated percentile on it swung by 0.2–0.25
	// of its median over ten seeds. At 25 Hz the session is about as busy
	// (7%) as syn-heavy's at 500 Hz, and both knees lie beyond the gated
	// percentiles.
	servedHz float64
	sessions int
	// force admits the served network despite static-verification
	// findings (fault-route's relays have no synapses, which modelcheck
	// reports as unreachable thresholds).
	force bool
}

var workloads = []*workload{
	// The paper's real-time operating point and all-tonic construction (the
	// network of BenchmarkStep8x8At20Hz128Syn): the core layer (Synapse word
	// path, Neuron phase) is most of the tick and routing a few percent.
	{
		name: "syn-heavy", grid: 8, rateHz: 20, syn: 128,
		settle: 40, window: 600, gate: 20, trace: 400, share: 0.4, servedHz: 500,
	},
	// No synaptic events, and detour routing around 8 dead cores (greedy
	// walk, BFS fallback) is most of the tick while the core layer is a few
	// percent: the bypass side of every core change and the exercise side
	// of every router one.
	{
		name: "fault-route", grid: 16, rateHz: 200, syn: 0, driven: 0.875, faults: 8,
		settle: 20, window: 40, gate: 5, trace: 80, share: 0.4, servedHz: 25, force: true,
	},
	// Many small paced sessions: a tick costs microseconds, so engine
	// frame, scheduler and HTTP costs dominate. 30 sessions keep about a
	// quarter of a 2-CPU host busy; at 60 (about half) queueing magnified
	// every shift in host speed, and command p99 swung 15–25 ms between
	// identical runs.
	{
		name: "serve-mix", grid: 2, rateHz: 20, syn: 32,
		settle: 40, window: 10000, gate: 200, trace: 4000, share: 0.3, servedHz: 1000, sessions: 30,
	},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const setupReps = 5

func main() {
	name := flag.String("workload", "syn-heavy", "workload name")
	seed := flag.Int64("seed", DefaultSeed, fmt.Sprintf("workload seed: fixes the network, fault placement and command schedule (held-out seed: %d)", HeldOutSeed))
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the trace, the CPU profile and temporary model files")
	profile := flag.Bool("cpuprofile", false, "write a CPU profile beside the trace")
	flag.Parse()
	w := lookup(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workloads: %s)\n", names())
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out, *profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	detail, err := json.Marshal(res.detail)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("detail %s\n", detail)
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func names() string {
	var s []string
	for _, w := range workloads {
		s = append(s, w.name)
	}
	return strings.Join(s, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type report struct {
	result result
	detail map[string]any
}

// run executes one workload run.
func run(w *workload, seed int64, total time.Duration, traced bool, out string, profile bool) (*report, error) {
	work := filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	stem := filepath.Join(out, fmt.Sprintf("%s-%d", w.name, seed))
	if profile {
		f, err := os.Create(stem + ".cpu.pprof")
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	root := tr.begin("run", 0)

	// Set-up, several times over: the median is the reported setup_s. The
	// last repetition's engines and server are the measured ones.
	var (
		e      *engines
		set    *servedSet
		arm    *httpArm
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if arm != nil {
			arm.close()
		}
		sp := tr.begin("setup", root)
		t0 := time.Now()
		var err error
		if e, err = buildEngines(w, seed); err != nil {
			return nil, err
		}
		engineSetup := time.Since(t0)
		if set == nil {
			// Model files are the benchmark's own inputs, written once.
			if set, err = sessionSet(w, seed, e, work); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		if arm, err = startHTTP(set); err != nil {
			return nil, err
		}
		setups = append(setups, (engineSetup + time.Since(t1)).Seconds())
		tr.end(sp)
	}
	goruntime.GC()

	engineDur := time.Duration(float64(total) * w.share)
	sp := tr.begin("engine", root)
	eng := runEngines(w, e, engineDur, traced, tr, sp)
	tr.end(sp)

	sched := makeSchedule(seed, total-engineDur, len(set.loads), set.grid)
	sp = tr.begin("serve", root)
	srv := arm.run(sched, tr, sp)
	tr.end(sp)
	arm.close()

	attempted := eng.checks + srv.checks
	failures := append(append([]string(nil), eng.failures...), srv.failures...)
	rep := &report{detail: map[string]any{"workload": w.name, "seed": seed, "traced": traced}}

	var rtRes *serveResult
	var ck checkpointTiming
	if traced {
		ra, err := startRuntime(set)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("runtime", root)
		rtRes = ra.run(sched, tr, sp)
		tr.end(sp)
		ra.close()
		attempted += rtRes.checks
		failures = append(failures, rtRes.failures...)
		if ck, err = timeCheckpoints(set.ckpt); err != nil {
			return nil, err
		}
	}
	tr.end(root)

	rep.result = result{Correct: len(failures) == 0, Attempted: attempted, Failed: len(failures), Metrics: map[string]metric{}}
	if len(failures) > 10 {
		failures = failures[:10]
	}
	rep.detail["failures"] = failures
	if traced {
		perLayer(rep, w, eng, srv, rtRes, ck)
		if err := tr.write(stem + ".trace.json"); err != nil {
			return nil, err
		}
	} else {
		endToEnd(rep, eng, srv, setups)
	}
	return rep, nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(rep *report, eng *engineResult, srv *serveResult, setups []float64) {
	cmd := srv.cmdLatencies()
	set := func(name, unit string, v float64) { rep.result.Metrics[name] = metric{Value: v, Unit: unit} }
	set("chip_ticks_per_s", "1/s", median(eng.chipTPS))
	set("compass_ticks_per_s", "1/s", median(eng.compassTPS))
	p50, _ := percentile(cmd, 0.50)
	set("cmd_p50_ms", "ms", p50)
	i50, _ := percentile(srv.probeLat, 0.50)
	set("inject_output_p50_ms", "ms", i50)
	// The tails are the highest percentiles whose spread over ten seeds
	// stayed inside the largest bound on every workload, with at least ten
	// samples beyond them (README.md); the detail line lists the others.
	c80, _ := percentile(cmd, 0.80)
	set("cmd_p80_ms", "ms", c80)
	i95, _ := percentile(srv.probeLat, 0.95)
	set("inject_output_p95_ms", "ms", i95)
	set("paced_tick_ratio", "ratio", srv.ratio)
	set("setup_s", "s", median(setups))
	set("mem_mb", "MB", maxRSSMB())
	rep.detail["chip_ticks_per_s"] = summarize(eng.chipTPS)
	rep.detail["compass_ticks_per_s"] = summarize(eng.compassTPS)
	rep.detail["chip_ticks_per_s_raw"] = summarize(eng.chipRaw)
	rep.detail["compass_ticks_per_s_raw"] = summarize(eng.compassRaw)
	rep.detail["host_probe_us"] = map[string]summary{"mean": summarize(eng.probes), "slowest": summarize(eng.slowest)}
	rep.detail["cmd_ms"] = tails(cmd)
	rep.detail["inject_output_ms"] = tails(srv.probeLat)
	rep.detail["cpu_us_per_tick"] = srv.cpuPerTick
	rep.detail["setup_s"] = summarize(setups)
	rep.detail["serve_window_s"] = srv.window.Seconds()
}

// checkpointTiming is model.WriteCheckpoint / ReadCheckpoint timed on the
// designated session's model.
type checkpointTiming struct {
	writeMs, readMs []float64
	bytes           int
}

// perLayer fills the traced run's metrics.
func perLayer(rep *report, w *workload, eng *engineResult, srv, rtRes *serveResult, ck checkpointTiming) {
	set := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rep.result.Metrics[name] = metric{Value: v, Unit: unit}
	}
	rec, rp := eng.rec, eng.rep
	ticks := float64(len(rec.ticks))
	var stepped int
	for _, list := range rec.ticks {
		stepped += len(list)
	}
	measured := float64(rec.stepNs) / ticks
	coreNs, routeNs := float64(rp.coreNs)/ticks, float64(rp.routeNs)/ticks
	frame := measured - coreNs - routeNs
	sim, noc := eng.sim, eng.simNoC
	routes := float64(noc.RoutedSpikes + noc.Dropped)

	set("core.step_ns_per_tick", "ns", coreNs)
	set("core.ns_per_syn_event", "ns", safeDiv(float64(rp.coreNs), float64(sim.SynEvents)))
	set("core.word_path_share", "ratio", safeDiv(float64(rp.wordTicks()), float64(rp.inputSteps)))
	set("core.syn_events_per_tick", "count", float64(sim.SynEvents)/ticks)
	set("core.neuron_updates_per_tick", "count", float64(sim.NeuronUpdates)/ticks)
	set("core.cores_stepped_per_tick", "count", float64(stepped)/ticks)
	set("router.route_ns_per_tick", "ns", routeNs)
	set("router.ns_per_route", "ns", safeDiv(float64(rp.routeNs), routes))
	set("router.routes_per_tick", "count", routes/ticks)
	set("router.hops_per_route", "count", safeDiv(float64(noc.Hops), float64(noc.RoutedSpikes)))
	set("router.detour_share", "ratio", safeDiv(float64(noc.Detours), float64(noc.RoutedSpikes)))
	set("router.dropped_share", "ratio", safeDiv(float64(noc.Dropped), routes))
	set("chip.step_ns_per_tick", "ns", measured)
	set("chip.frame_ns_per_tick", "ns", frame)
	set("chip.allocs_per_tick", "count", eng.chipAllocs)
	set("compass.parallel_efficiency", "ratio", safeDiv(coreNs+routeNs, float64(eng.workers)*eng.compassNsPerTick))
	set("compass.load_imbalance", "ratio", eng.loadImbalance)
	set("compass.allocs_per_tick", "count", eng.compassAllocs)
	set("sim.spikes_per_tick", "count", float64(sim.Spikes)/ticks)
	set("energy.chip_mw", "mW", chipPowerMW(eng.mesh, sim, noc, len(rec.ticks)))

	// Tracing overhead: the traced tick (the chip's Step, timed with the
	// replay stepping a second set of cores between every two of them)
	// against the untraced tick of the chip windows timed right after. It
	// includes what the replay costs the chip's caches; the scan share is the
	// recording scan alone.
	set("trace.overhead_share", "ratio", safeDiv(measured, eng.chipNsPerTick)-1)
	set("trace.scan_share", "ratio", safeDiv(float64(rec.scanNs), float64(rec.stepNs)))
	set("trace.residual_share", "ratio", safeDiv(frame, measured))

	httpOps, rtOps := srv.opLatencies(), rtRes.opLatencies()
	p50 := func(v []float64) float64 { x, _ := percentile(v, 0.5); return x }
	rtName := map[string]string{opStats: "stats", opOutputs: "drain", opInject: "inject", opCheckpoint: "checkpoint", opRestore: "restore"}
	for _, op := range []string{opStats, opOutputs, opInject, opCheckpoint, opRestore} {
		set("runtime."+rtName[op]+"_p50_ms", "ms", p50(rtOps[op]))
		set("serve."+op+"_p50_ms", "ms", p50(httpOps[op]))
		set("serve."+op+"_self_ms", "ms", p50(httpOps[op])-p50(rtOps[op]))
	}
	set("serve.metrics_p50_ms", "ms", p50(httpOps[opMetrics]))
	cmd99, _ := percentile(srv.cmdLatencies(), 0.99)
	set("serve.cmd_p99_ms", "ms", cmd99)
	set("serve.cpu_us_per_tick", "us", srv.cpuPerTick)
	set("serve.create_p50_ms", "ms", p50(srv.createMs))
	m := rtRes.sched
	set("runtime.step_p50_us", "us", histQuantile(m.StepLatency, 0.5)*1e6)
	set("runtime.batch_size", "ticks", safeDiv(float64(m.TicksStepped), float64(m.Dispatches)))
	set("runtime.ready_depth", "count", mean(rtRes.readyDepth))
	set("model.checkpoint_ms", "ms", median(ck.writeMs))
	set("model.restore_ms", "ms", median(ck.readMs))
	set("model.checkpoint_bytes", "bytes", float64(ck.bytes))
	var lags []float64
	for _, s := range srv.samples {
		lags = append(lags, millis(s.lag()))
	}
	lag99, _ := percentile(lags, 0.99)
	set("gen.lag_p99_ms", "ms", lag99)

	rep.detail["runtime_arm"] = map[string]any{"paced_tick_ratio": rtRes.ratio, "cpu_us_per_tick": rtRes.cpuPerTick, "window_s": rtRes.window.Seconds()}
	rep.detail["http_arm"] = map[string]any{"paced_tick_ratio": srv.ratio, "cpu_us_per_tick": srv.cpuPerTick, "window_s": srv.window.Seconds()}
	rep.detail["replayed_ticks"] = len(rec.ticks)
	rep.detail["simulated"] = map[string]any{"counters": sim, "noc": noc, "ticks": len(rec.ticks)}
	if w.name == "syn-heavy" {
		mw := chipPowerMW(eng.mesh, sim, noc, len(rec.ticks))
		rep.detail["energy_vs_paper"] = map[string]float64{"model_mw": mw, "paper_mw": 65, "error_share": mw/65 - 1}
	}
}

// tails lists the upper percentiles of latencies with the number of samples
// beyond each, from which the gated tail percentile was chosen.
func tails(lat []float64) map[string]any {
	out := map[string]any{"n": len(lat)}
	for _, p := range []float64{0.75, 0.80, 0.90, 0.95, 0.99} {
		v, beyond := percentile(lat, p)
		out[fmt.Sprintf("p%.0f", p*100)] = map[string]any{"ms": v, "beyond": beyond}
	}
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident memory in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
