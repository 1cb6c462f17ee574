package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls on the first command must show up in the latency
// of every command queued behind it, because latency is counted from each
// command's due time and not from when it was finally sent.
func TestOpenLoopChargesStallToLaterCommands(t *testing.T) {
	const stall = 150 * time.Millisecond
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
		io.WriteString(w, "ok") //nolint:errcheck
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	exec := func(request) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.ReadAll(resp.Body)
		return err
	}

	var sched []request
	for i := 0; i < 30; i++ {
		sched = append(sched, request{due: time.Duration(i) * 10 * time.Millisecond, op: opStats})
	}
	samples := runOpenLoop(time.Now(), sched, exec)
	if len(samples) != len(sched) {
		t.Fatalf("got %d samples for %d commands", len(samples), len(sched))
	}
	for _, s := range samples {
		if s.err != nil {
			t.Fatal(s.err)
		}
	}
	// The second command was due 10 ms in but could only be sent once the
	// stall ended: its own service was quick, its latency is not.
	second := samples[1]
	if second.latency() < stall-20*time.Millisecond {
		t.Errorf("command behind the stall: latency %v, want at least %v", second.latency(), stall-20*time.Millisecond)
	}
	if second.lag() < stall-20*time.Millisecond {
		t.Errorf("command behind the stall: generator lag %v, want at least %v", second.lag(), stall-20*time.Millisecond)
	}
	if service := second.done.Sub(second.sent); service > 50*time.Millisecond {
		t.Errorf("command behind the stall took %v to serve; the test needs it quick", service)
	}
	// Later ones shrink as the backlog clears, and the tail is back on time.
	if samples[5].latency() >= second.latency() {
		t.Errorf("latency did not fall as the backlog cleared: %v then %v", second.latency(), samples[5].latency())
	}
	if last := samples[len(samples)-1]; last.latency() > 50*time.Millisecond {
		t.Errorf("last command latency %v: the backlog never cleared", last.latency())
	}
}

func TestScheduleIsFixedBySeed(t *testing.T) {
	a := makeSchedule(7, 2*time.Second, 5, 4)
	b := makeSchedule(7, 2*time.Second, 5, 4)
	c := makeSchedule(8, 2*time.Second, 5, 4)
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths %d and %d", len(a), len(b))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, request %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i < len(c) && a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	ops := map[string]int{}
	for _, r := range a {
		ops[r.op]++
	}
	for _, op := range []string{opProbe, opStats, opOutputs, opInject, opCheckpoint, opRestore, opMetrics} {
		if ops[op] == 0 {
			t.Errorf("schedule has no %s command", op)
		}
	}
}

// The schedule's streams run at their sources' rates: stats every 5 ms and
// 30 frames a second, each frame a probe injection, a load injection and a
// drain of the same session.
func TestScheduleRates(t *testing.T) {
	const d = 60 * time.Second
	sched := makeSchedule(11, d, 30, 2)
	ops := map[string]int{}
	for i, r := range sched {
		ops[r.op]++
		if i > 0 && r.due < sched[i-1].due {
			t.Fatalf("request %d due at %v, before its predecessor at %v", i, r.due, sched[i-1].due)
		}
		if r.op == opProbe {
			inj, drain := sched[i+1], sched[i+2]
			if inj.op != opInject || drain.op != opOutputs || inj.sess != drain.sess || inj.due != r.due || drain.due != r.due {
				t.Fatalf("frame at %v is %+v, %+v, %+v", r.due, r, inj, drain)
			}
		}
	}
	rate := func(op string) float64 { return float64(ops[op]) / d.Seconds() }
	for _, c := range []struct {
		op   string
		want float64
	}{{opStats, 200}, {opProbe, 30}, {opInject, 30}, {opOutputs, 30}, {opMetrics, 1}, {opCheckpoint, 2}} {
		if got := rate(c.op); got < 0.9*c.want || got > 1.1*c.want {
			t.Errorf("%s: %.1f per second, want %.0f", c.op, got, c.want)
		}
	}
}
