package main

import (
	goruntime "runtime"
	"sync"
	"time"
)

// The host this benchmark runs on changes speed by up to 2× for tens of
// seconds at a time (other tenants share its cores and caches), which would
// swamp any change to the program. Each engine window is therefore paired
// with a fixed probe of host speed that owes nothing to the program: on
// every CPU at once, it mixes integer work over a cache-resident table,
// lookups in a small struct-keyed map and the clearing of short runs of
// memory, the kinds of work the engines' cores, fault map and detour search
// do. Window rates are reported scaled to the host speed at which the probe
// takes refProbe, so a window on a slowed host and one on a fast host read
// alike; the raw rates are printed beside them.
//
// No program state may feed the probe, or a change that made the program
// worse could make the host look slower and so hide itself. The probe
// allocates nothing while it is timed (its tables are made once, before the
// first probe), and every probe starts with a full collection, so no
// garbage collection of the program's heap runs beside it.
const (
	probeIters = 12000
	refProbe   = 1200 * time.Microsecond
)

type probeKey struct{ x, y int }

// probeState is one CPU's probe tables, made once and reused.
type probeState struct {
	table [1 << 12]uint64
	keys  map[probeKey]bool
	buf   []int32
}

var (
	probeOnce   sync.Once
	probeStates []*probeState
	// probeSink keeps the probes' results live.
	probeSink uint64
)

// hostProbe runs the probe on every CPU at once and returns the mean
// duration and the longest: the single-threaded chip engine runs at the
// speed of a typical CPU, the fork-join compass engine at that of its
// slowest.
func hostProbe() (mean, slowest time.Duration) {
	n := goruntime.NumCPU()
	probeOnce.Do(func() {
		for g := 0; g < n; g++ {
			st := &probeState{keys: map[probeKey]bool{}, buf: make([]int32, 1<<14)}
			for k := 0; k < 8; k++ {
				st.keys[probeKey{k * 3, k * 5}] = true
			}
			probeStates = append(probeStates, st)
		}
	})
	goruntime.GC()
	durs := make([]time.Duration, n)
	sums := make([]uint64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := probeStates[g]
			t0 := time.Now()
			x := uint64(88172645463325252) + uint64(g)
			var hits uint64
			for i := 0; i < probeIters; i++ {
				for k := 0; k < 16; k++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					st.table[x&(uint64(len(st.table))-1)] += x
				}
				for k := 0; k < 8; k++ {
					if st.keys[probeKey{int(x>>(k*4)) & 31, int(x>>(k*4+2)) & 31}] {
						hits++
					}
				}
				if i&15 == 0 {
					off := int(x>>20) & (len(st.buf) - 128)
					run := st.buf[off : off+64+int(x&63)]
					clear(run)
					run[0] = int32(x)
					hits += uint64(run[0])
				}
			}
			sums[g] = st.table[x&(uint64(len(st.table))-1)] + hits
			durs[g] = time.Since(t0)
		}(g)
	}
	wg.Wait()
	var total time.Duration
	for g, d := range durs {
		total += d
		slowest = max(slowest, d)
		probeSink += sums[g]
	}
	return total / time.Duration(n), slowest
}
