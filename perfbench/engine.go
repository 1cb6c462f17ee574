package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"time"

	"truenorth/internal/chip"
	"truenorth/internal/compass"
	"truenorth/internal/core"
	"truenorth/internal/energy"
	"truenorth/internal/experiments"
	"truenorth/internal/netgen"
	"truenorth/internal/router"
	"truenorth/internal/sim"
)

// engines is one workload network on both kernel expressions, built from
// identical configurations with identical faults.
type engines struct {
	mesh    router.Mesh
	configs []*core.Config
	dead    []router.Point
	chip    *chip.Model
	compass *compass.Sim
}

// network generates the workload's network from seed.
func (w *workload) network(seed int64) (router.Mesh, []*core.Config, error) {
	mesh := router.Mesh{W: w.grid, H: w.grid}
	configs, err := netgen.Build(netgen.Params{
		Grid: mesh, RateHz: w.rateHz, SynPerNeuron: w.syn,
		Seed: seed, DrivenFraction: w.driven,
	})
	return mesh, configs, err
}

// faultBase fixes the shape of every workload's fault set. How much
// detouring a set of dead cores causes depends strongly on where they sit
// (two neighbours form a wall that defeats the greedy walk), so a set drawn
// afresh per seed would make routing cost a property of the seed. The seed
// instead picks one of the four mirror images of one drawn set: dimension-
// order routing treats them alike, so every seed routes the same way
// statistically.
const faultBase = 20140613

// faultSet returns the n cores of mesh to disable for seed.
func faultSet(mesh router.Mesh, n int, seed int64) []router.Point {
	perm := rand.New(rand.NewSource(faultBase)).Perm(mesh.W * mesh.H)
	dead := make([]router.Point, 0, n)
	for _, i := range perm[:n] {
		p := router.Point{X: i % mesh.W, Y: i / mesh.W}
		if seed&1 != 0 {
			p.X = mesh.W - 1 - p.X
		}
		if seed&2 != 0 {
			p.Y = mesh.H - 1 - p.Y
		}
		dead = append(dead, p)
	}
	return dead
}

// buildEngines is the engine half of set-up: network generation, both
// engines' construction and fault installation through DisableCore.
func buildEngines(w *workload, seed int64) (*engines, error) {
	mesh, configs, err := w.network(seed)
	if err != nil {
		return nil, err
	}
	ch, err := chip.New(mesh, configs)
	if err != nil {
		return nil, err
	}
	cp, err := compass.New(mesh, configs, sim.WithWorkers(goruntime.NumCPU()))
	if err != nil {
		return nil, err
	}
	dead := faultSet(mesh, w.faults, seed)
	for _, p := range dead {
		ch.DisableCore(p.X, p.Y)
		cp.DisableCore(p.X, p.Y)
	}
	return &engines{mesh: mesh, configs: configs, dead: dead, chip: ch, compass: cp}, nil
}

// engineResult is the engine phase's measurements.
type engineResult struct {
	// Per window: simulated ticks per host second scaled to the reference
	// host speed (see calib.go), the raw rates, and the probe times (µs).
	chipTPS, compassTPS []float64
	chipRaw, compassRaw []float64
	probes, slowest     []float64
	checks              int
	failures            []string

	// Traced runs only.
	mesh                      router.Mesh
	rec                       *recording
	rep                       *replay
	sim                       core.Counters
	simNoC                    sim.NoCStats
	chipAllocs, compassAllocs float64
	compassNsPerTick          float64
	chipNsPerTick             float64 // untraced, over the first windows
	loadImbalance             float64
	workers                   int
}

func (r *engineResult) check(ok bool, format string, args ...any) {
	r.checks++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runEngines measures the workload's network on both engines for d:
//
//  1. both engines settle;
//  2. the chip records ticks [settle, settle+n) and the compass runs the
//     same ticks; the recording is replayed layer by layer, and chip,
//     compass and replay must agree on counters, NoC statistics and the
//     digest of every core's state (the correctness gate);
//  3. alternating chip and compass windows of w.window ticks each fill the
//     rest of d, each giving one ticks-per-second sample; both engines run
//     the same ticks, so they can be compared state for state at the end;
//  4. the two engines must again agree exactly.
//
// Traced runs record more ticks, time the engine's Step, the recording scan
// and each replayed layer, and read allocation counts around one window of
// each engine.
func runEngines(w *workload, e *engines, d time.Duration, traced bool, tr *tracer, parent int) *engineResult {
	res := &engineResult{workers: e.compass.Workers()}
	start := time.Now()

	sp := tr.begin("engine.settle", parent)
	e.chip.Run(w.settle)
	e.compass.Run(w.settle)
	tr.end(sp)

	n := w.gate
	if traced {
		n = w.trace
	}
	// The replay runs in lockstep with the recording, so the chip's tick
	// and its replayed layers are timed within microseconds of each other,
	// under the same host conditions.
	sp = tr.begin("engine.record_replay", parent)
	c0, noc0 := e.chip.Counters(), e.chip.NoC()
	rec := newRecording(e.chip, traced)
	rep := newReplay(e.mesh, e.configs, rec)
	var err error
	for i := 0; i < n; i++ {
		list := rec.step(e.chip)
		if err == nil {
			err = rep.step(rec.start+uint64(i), list)
		}
	}
	tr.end(sp)
	sp = tr.begin("engine.compass_gate", parent)
	e.compass.Run(n)
	tr.end(sp)

	res.check(err == nil, "%v", err)
	res.sim, res.simNoC = cntDelta(c0, e.chip.Counters()), nocDelta(noc0, e.chip.NoC())
	if err == nil {
		replayCnt := cntDelta(sumStates(rec.states), rep.counters())
		res.check(replayCnt == res.sim, "replay counters %+v differ from chip %+v", replayCnt, res.sim)
		res.check(rep.noc == res.simNoC, "replay NoC %+v differs from chip %+v", rep.noc, res.simNoC)
		res.check(digest(rep.cores) == digest(e.chip.Cores()), "replay core states differ from chip at tick %d", e.chip.Tick())
	}
	compareEngines(res, e)
	if traced {
		res.mesh, res.rec, res.rep = e.mesh, rec, rep
	}

	for time.Since(start) < d {
		mean, slowest := hostProbe()
		raw := window(e.chip, w.window, "engine.chip_window", tr, parent)
		res.chipRaw = append(res.chipRaw, raw)
		res.chipTPS = append(res.chipTPS, raw*float64(mean)/float64(refProbe))
		res.probes = append(res.probes, float64(mean.Microseconds()))
		mean, slowest = hostProbe()
		raw = window(e.compass, w.window, "engine.compass_window", tr, parent)
		res.compassRaw = append(res.compassRaw, raw)
		res.compassTPS = append(res.compassTPS, raw*float64(slowest)/float64(refProbe))
		res.slowest = append(res.slowest, float64(slowest.Microseconds()))
	}
	if traced {
		res.chipAllocs = allocsPerTick(e.chip, w.window)
		res.compassAllocs = allocsPerTick(e.compass, w.window)
		res.compassNsPerTick = 1e9 / median(res.compassRaw)
		// The windows nearest the recorded ticks in time, so that host-speed
		// drift over the run does not read as tracing overhead.
		res.chipNsPerTick = 1e9 / median(res.chipRaw[:min(len(res.chipRaw), tracedRef)])
		res.loadImbalance = e.compass.LoadImbalance()
	}
	compareEngines(res, e)
	return res
}

// tracedRef is how many of the first chip windows a traced run takes as
// the untraced tick time its traced ticks are compared with.
const tracedRef = 5

// window runs one timed window of n ticks and returns its ticks per second.
func window(eng sim.Engine, n int, name string, tr *tracer, parent int) float64 {
	t0 := time.Now()
	eng.Run(n)
	t1 := time.Now()
	tr.add(name, parent, t0, t1)
	return float64(n) / t1.Sub(t0).Seconds()
}

// allocsPerTick counts heap allocations over n ticks of eng.
func allocsPerTick(eng sim.Engine, n int) float64 {
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	eng.Run(n)
	goruntime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// compareEngines is the cross-engine part of the gate: at the same tick the
// two engines must hold identical counters, NoC statistics and core states.
func compareEngines(res *engineResult, e *engines) {
	ch, cp := e.chip, e.compass
	if ch.Tick() != cp.Tick() {
		res.check(false, "engines at different ticks: chip %d, compass %d", ch.Tick(), cp.Tick())
		return
	}
	res.check(ch.Counters() == cp.Counters(), "tick %d: compass counters %+v differ from chip %+v", ch.Tick(), cp.Counters(), ch.Counters())
	res.check(ch.NoC() == cp.NoC(), "tick %d: compass NoC %+v differs from chip %+v", ch.Tick(), cp.NoC(), ch.NoC())
	res.check(digest(ch.Cores()) == digest(cp.Cores()), "tick %d: compass core states differ from chip", ch.Tick())
}

// sumStates totals the counters held in a set of saved core states.
func sumStates(states []core.State) core.Counters {
	var total core.Counters
	for _, s := range states {
		total.Add(s.Cnt)
	}
	return total
}

// chipPowerMW is the energy model's full-chip power, in mW at real time and
// 0.75 V, for the per-tick load of a recorded window.
func chipPowerMW(mesh router.Mesh, cnt core.Counters, noc sim.NoCStats, ticks int) float64 {
	l := experiments.ScaleLoadToChip(energy.LoadFrom(cnt, noc, uint64(ticks)), mesh)
	return energy.TrueNorth().PowerW(l, 1000, 0.75) * 1e3
}
