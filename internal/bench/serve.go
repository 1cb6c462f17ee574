// Serving sweep: how many concurrently paced sessions one process can
// hold at rate, and at what command latency.
//
// The unit under test is the session servicer, so the sweep drives
// internal/runtime directly: one timing-wheel Scheduler steps every due
// session from a fixed worker pool, batching sub-quantum periods into
// multi-tick dispatches.
//
// Each point starts N sessions paced at RateHz (1000 Hz = the biological
// real-time tick) on a minimal one-core relay model, measures the
// aggregate achieved ticks/sec over a wall-clock window, and probes
// command latency (Stats round-robin) throughout. A point is "sustained"
// when achieved/requested stays at or above Threshold AND command p99
// stays within MaxCmdP99 — the SLO matters because a behind-schedule
// paced session sprints to catch up, so throughput alone reads ≈ 1 long
// past real capacity. The sweep walks the session axis upward until it
// fails, so the report ends with the capacity frontier.
//
// The model is deliberately quiescent: with the active-neuron kernel a
// tick of an idle relay core costs almost nothing, so the sweep isolates
// the pacing machinery itself.
package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"truenorth/internal/core"
	"truenorth/internal/neuron"
	"truenorth/internal/router"
	rt "truenorth/internal/runtime"
	"truenorth/internal/sim"
)

// ServeConfig parameterizes one serving sweep.
type ServeConfig struct {
	// Sessions is the ascending session-count axis, walked upward until a
	// point fails to sustain Threshold.
	Sessions []int
	// RateHz paces every session (1000 = real time).
	RateHz float64
	// Window is the measured wall-clock interval per point, after Warmup.
	Window time.Duration
	// Warmup runs before measurement so pacing transients settle.
	Warmup time.Duration
	// Threshold is the achieved/requested ratio at or above which a point
	// counts as sustained.
	Threshold float64
	// MaxCmdP99 is the command-latency SLO that completes the sustained
	// criterion. Mean throughput alone cannot detect overload: a paced
	// session that falls behind sprints to catch up, so an oversubscribed
	// point holds ratio ≈ 1 long past real capacity while timeliness
	// collapses — the latency tail is where saturation first becomes
	// observable.
	MaxCmdP99 time.Duration
	// ProbeEvery is the command-latency probe period.
	ProbeEvery time.Duration
	// Workers sizes the scheduler's pool (0 = GOMAXPROCS).
	Workers int
}

// DefaultServeConfig is the full sweep cmd/tnbench -serve runs: a
// power-of-two session axis up to thousands of sessions, at the real-time
// rate.
func DefaultServeConfig() ServeConfig {
	return ServeConfig{
		Sessions:   []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192},
		RateHz:     1000,
		Window:     2 * time.Second,
		Warmup:     500 * time.Millisecond,
		Threshold:  0.9,
		MaxCmdP99:  20 * time.Millisecond,
		ProbeEvery: 5 * time.Millisecond,
	}
}

// ServeSmokeConfig is the CI configuration: two tiny points, sub-second
// windows, no capacity claims — it exercises the sweep, the probe, and
// the JSON schema.
func ServeSmokeConfig() ServeConfig {
	return ServeConfig{
		Sessions:   []int{2, 8},
		RateHz:     500,
		Window:     400 * time.Millisecond,
		Warmup:     100 * time.Millisecond,
		Threshold:  0.5,
		MaxCmdP99:  500 * time.Millisecond,
		ProbeEvery: 20 * time.Millisecond,
	}
}

// Validate reports the first invalid sweep parameter, or nil.
func (c ServeConfig) Validate() error {
	if len(c.Sessions) == 0 {
		return fmt.Errorf("bench: empty session axis")
	}
	last := 0
	for _, n := range c.Sessions {
		if n <= last {
			return fmt.Errorf("bench: session axis must be ascending and positive, got %v", c.Sessions)
		}
		last = n
	}
	if c.RateHz <= 0 {
		return fmt.Errorf("bench: serve rate %g must be positive", c.RateHz)
	}
	if c.Window <= 0 {
		return fmt.Errorf("bench: window %v must be positive", c.Window)
	}
	if c.Threshold <= 0 || c.Threshold > 1 {
		return fmt.Errorf("bench: threshold %g must be in (0, 1]", c.Threshold)
	}
	if c.MaxCmdP99 <= 0 {
		return fmt.Errorf("bench: command-latency SLO %v must be positive", c.MaxCmdP99)
	}
	if c.ProbeEvery <= 0 {
		return fmt.Errorf("bench: probe period %v must be positive", c.ProbeEvery)
	}
	return nil
}

// ServePoint is one session-count measurement.
type ServePoint struct {
	Sessions int `json:"sessions"`
	// RequestedTicksPerSec is Sessions × RateHz; AchievedTicksPerSec is
	// the aggregate tick throughput observed over the window.
	RequestedTicksPerSec float64 `json:"requested_ticks_per_sec"`
	AchievedTicksPerSec  float64 `json:"achieved_ticks_per_sec"`
	Ratio                float64 `json:"ratio"`
	Sustained            bool    `json:"sustained"`
	// CmdP50Ms / CmdP99Ms are command (Stats) latency percentiles over
	// the probes issued during the window.
	CmdP50Ms      float64 `json:"cmd_p50_ms"`
	CmdP99Ms      float64 `json:"cmd_p99_ms"`
	Probes        int     `json:"probes"`
	ProbeTimeouts int     `json:"probe_timeouts"`
}

// ServeSummary condenses the sweep into its capacity figures. The field
// names match the scheduler half of schema-1 reports.
type ServeSummary struct {
	// SchedulerMaxSessions is the largest sustained point on the session
	// axis (0 = none sustained).
	SchedulerMaxSessions int `json:"scheduler_max_sessions"`
	// SchedulerPeakTicksPerSec is the peak aggregate achieved ticks/sec
	// across all points.
	SchedulerPeakTicksPerSec float64 `json:"scheduler_peak_ticks_per_sec"`
	// SchedulerP99AtMaxMs is the p99 command latency at the largest
	// sustained point.
	SchedulerP99AtMaxMs float64 `json:"scheduler_p99_at_max_ms"`
}

// ServeReport is the schema of BENCH_SERVE_<date>.json. Schema 1 also
// carried a goroutine-per-session arm; schema 2 measures the scheduler
// only.
type ServeReport struct {
	SchemaVersion int          `json:"schema_version"`
	GeneratedAt   string       `json:"generated_at"`
	GoVersion     string       `json:"go_version"`
	GOOS          string       `json:"goos"`
	GOARCH        string       `json:"goarch"`
	CPUs          int          `json:"cpus"`
	GOMAXPROCS    int          `json:"gomaxprocs"`
	Workers       int          `json:"workers"`
	RateHz        float64      `json:"rate_hz"`
	WindowMs      float64      `json:"window_ms"`
	Threshold     float64      `json:"threshold"`
	MaxCmdP99Ms   float64      `json:"max_cmd_p99_ms"`
	Points        []ServePoint `json:"points"`
	Summary       ServeSummary `json:"summary"`
}

// ServeFilename returns the dated evidence-file name,
// BENCH_SERVE_YYYY-MM-DD.json.
func ServeFilename() string {
	return "BENCH_SERVE_" + time.Now().Format("2006-01-02") + ".json"
}

// serveModel is the minimal one-core relay: a single identity neuron
// wired straight to an output sink. Ticking it while quiescent costs the
// active-neuron kernel nothing, which is the point — the sweep measures
// pacing overhead, not simulation throughput.
func serveModel() []*core.Config {
	c := core.InertConfig()
	c.Synapses[0].Set(0)
	c.Neurons[0] = neuron.Identity()
	c.Targets[0] = core.Target{Valid: true, Output: true, OutputID: 0}
	return []*core.Config{c}
}

// measureServePoint runs one point: n paced sessions held at rate for the
// window, with the latency probe running throughout.
func (c ServeConfig) measureServePoint(n int) (ServePoint, error) {
	pt := ServePoint{
		Sessions:             n,
		RequestedTicksPerSec: float64(n) * c.RateHz,
	}
	sched := rt.NewScheduler(rt.SchedulerConfig{Workers: c.Workers, MaxSessions: n})
	defer sched.Close() // also closes every session registered on it

	sessions := make([]*rt.Session, 0, n)
	cfgs := serveModel()
	for i := 0; i < n; i++ {
		eng, err := sim.NewEngine("chip", router.Mesh{W: 1, H: 1}, cfgs)
		if err != nil {
			return pt, err
		}
		s, err := rt.New(eng, rt.WithTickRate(c.RateHz), rt.WithScheduler(sched))
		if err != nil {
			return pt, err
		}
		sessions = append(sessions, s)
		if err := s.StartUntil(math.MaxUint64); err != nil {
			return pt, err
		}
	}
	time.Sleep(c.Warmup)

	// The probe issues Stats round-robin until stopped, recording each
	// command's latency. Commands land between ticks, so this is the
	// latency a serving frontend would see for any control operation.
	stop := make(chan struct{})
	probeDone := make(chan []float64, 1)
	timeouts := make(chan int, 1)
	//lint:ignore tnlint/ticksafe wall-clock latency probe of the serving path
	go func() {
		var samples []float64
		nTimeout := 0
		i := 0
		for {
			select {
			case <-stop:
				probeDone <- samples
				timeouts <- nTimeout
				return
			case <-time.After(c.ProbeEvery):
			}
			s := sessions[i%len(sessions)]
			i++
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			t0 := time.Now()
			_, err := s.Stats(ctx)
			lat := time.Since(t0)
			cancel()
			if err != nil {
				nTimeout++
			}
			samples = append(samples, lat.Seconds()*1e3)
		}
	}()

	// Tick throughput: per-session tick deltas over per-session measured
	// intervals. Each snapshot is timestamped individually because on a
	// saturated host the snapshot passes themselves take real time —
	// dividing every delta by the nominal window would book ticks accrued
	// during a slow pass as window throughput and overstate a failing point.
	// The passes issue every Stats concurrently: on an oversubscribed
	// point a command waits up to a full ready-queue rotation, so a
	// sequential pass would cost N rotations — hours at the axis top —
	// where a concurrent one costs about one.
	ctx := context.Background()
	snapshot := func() ([]uint64, []time.Time, error) {
		ticks := make([]uint64, n)
		at := make([]time.Time, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i, s := range sessions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := s.Stats(ctx)
				if err != nil {
					errs[i] = err
					return
				}
				ticks[i], at[i] = st.Tick, time.Now()
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
		return ticks, at, nil
	}
	before, beforeAt, err := snapshot()
	if err != nil {
		return pt, err
	}
	time.Sleep(c.Window)
	after, afterAt, err := snapshot()
	if err != nil {
		return pt, err
	}
	var agg float64
	for i := range sessions {
		dt := afterAt[i].Sub(beforeAt[i]).Seconds()
		if dt <= 0 {
			return pt, fmt.Errorf("bench: serve point measured a non-positive interval")
		}
		agg += float64(after[i]-before[i]) / dt
	}
	close(stop)
	samples := <-probeDone
	pt.ProbeTimeouts = <-timeouts
	pt.Probes = len(samples)

	pt.AchievedTicksPerSec = agg
	pt.Ratio = pt.AchievedTicksPerSec / pt.RequestedTicksPerSec
	pt.CmdP50Ms = percentile(samples, 0.50)
	pt.CmdP99Ms = percentile(samples, 0.99)
	pt.Sustained = pt.Ratio >= c.Threshold && pt.CmdP99Ms <= c.MaxCmdP99.Seconds()*1e3
	return pt, nil
}

// percentile returns the p-quantile of samples (nearest-rank on a sorted
// copy), or 0 when empty.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1)+0.5)]
}

// RunServe executes the serving sweep and assembles the report. It walks
// the session axis upward until the first unsustained point (which is
// still recorded — it pins where and how the servicer fails).
func RunServe(cfg ServeConfig, logf func(format string, args ...any)) (*ServeReport, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rep := &ServeReport{
		SchemaVersion: 2,
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Workers:       workers,
		RateHz:        cfg.RateHz,
		WindowMs:      float64(cfg.Window.Milliseconds()),
		Threshold:     cfg.Threshold,
		MaxCmdP99Ms:   cfg.MaxCmdP99.Seconds() * 1e3,
	}
	for _, n := range cfg.Sessions {
		pt, err := cfg.measureServePoint(n)
		if err != nil {
			return nil, fmt.Errorf("bench: serve %d sessions: %w", n, err)
		}
		rep.Points = append(rep.Points, pt)
		if logf != nil {
			logf("%5d sessions: %9.0f/%9.0f ticks/s (%.2f), p99 %6.2f ms%s",
				n, pt.AchievedTicksPerSec, pt.RequestedTicksPerSec, pt.Ratio,
				pt.CmdP99Ms, map[bool]string{true: "", false: "  [not sustained]"}[pt.Sustained])
		}
		if !pt.Sustained {
			break // the capacity frontier
		}
	}
	rep.Summary = summarizeServe(rep.Points)
	return rep, nil
}

// summarizeServe computes the capacity figures from the measured points.
func summarizeServe(pts []ServePoint) ServeSummary {
	var s ServeSummary
	for _, pt := range pts {
		if pt.Sustained && pt.Sessions > s.SchedulerMaxSessions {
			s.SchedulerMaxSessions = pt.Sessions
			s.SchedulerP99AtMaxMs = pt.CmdP99Ms
		}
		if pt.AchievedTicksPerSec > s.SchedulerPeakTicksPerSec {
			s.SchedulerPeakTicksPerSec = pt.AchievedTicksPerSec
		}
	}
	return s
}
