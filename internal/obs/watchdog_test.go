package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// feedHistory drives a history through n ticks, with per-tick values
// supplied by the callbacks (nil = series untracked).
func feedHistory(h *History, n int, commits, applies, queue, lag func(i int) float64) {
	var i int
	if commits != nil {
		h.TrackRate(SeriesCommits, func() float64 { return commits(i) })
	}
	if applies != nil {
		h.TrackRate(SeriesApplies, func() float64 { return applies(i) })
	}
	if queue != nil {
		h.TrackValue(SeriesQueueDepth, func() float64 { return queue(i) })
	}
	if lag != nil {
		// KindAvg with count advancing by 1 per tick: the per-tick average
		// equals the per-tick sum increment.
		var sum float64
		h.TrackAvg(SeriesMonitorLag,
			func() float64 { sum += lag(i); return sum },
			func() float64 { return float64(i) })
	}
	base := time.Unix(8000, 0)
	for i = 0; i <= n; i++ { // one extra tick: the first only baselines
		h.sampleOnce(base.Add(time.Duration(i) * time.Second))
	}
}

func TestWatchdogCommitsWithoutApplies(t *testing.T) {
	w := newWatchdog()
	w.window = 3

	stalled := newHistory()
	feedHistory(stalled, 3,
		func(i int) float64 { return float64(10 * i) }, // commits flowing
		func(i int) float64 { return 0 },               // nothing applied
		nil, nil)
	if r := w.Evaluate(stalled); !strings.Contains(r, "commits without applies") {
		t.Fatalf("Evaluate = %q, want commits-without-applies", r)
	}

	healthy := newHistory()
	feedHistory(healthy, 3,
		func(i int) float64 { return float64(10 * i) },
		func(i int) float64 { return float64(10 * i) },
		nil, nil)
	if r := w.Evaluate(healthy); r != "" {
		t.Fatalf("healthy Evaluate = %q, want \"\"", r)
	}

	idle := newHistory()
	feedHistory(idle, 3,
		func(i int) float64 { return 0 }, // no commits: idle, not stalled
		func(i int) float64 { return 0 },
		nil, nil)
	if r := w.Evaluate(idle); r != "" {
		t.Fatalf("idle Evaluate = %q, want \"\"", r)
	}

	short := newHistory()
	feedHistory(short, 2, // only 2 of the 3 required samples
		func(i int) float64 { return float64(10 * i) },
		func(i int) float64 { return 0 },
		nil, nil)
	if r := w.Evaluate(short); r != "" {
		t.Fatalf("short-window Evaluate = %q, want \"\" (needs full window)", r)
	}
}

func TestWatchdogQueueFlatHigh(t *testing.T) {
	w := newWatchdog()
	w.window, w.queueHighWater = 3, 100

	wedged := newHistory()
	feedHistory(wedged, 3, nil, nil, func(i int) float64 { return 300 }, nil)
	if r := w.Evaluate(wedged); !strings.Contains(r, "queue depth flat-high") {
		t.Fatalf("Evaluate = %q, want queue-flat-high", r)
	}

	draining := newHistory()
	feedHistory(draining, 3, nil, nil, func(i int) float64 { return 400 - float64(100*i) }, nil)
	if r := w.Evaluate(draining); r != "" {
		t.Fatalf("draining Evaluate = %q, want \"\" (depth falling)", r)
	}

	low := newHistory()
	feedHistory(low, 3, nil, nil, func(i int) float64 { return 50 }, nil)
	if r := w.Evaluate(low); r != "" {
		t.Fatalf("low-depth Evaluate = %q, want \"\"", r)
	}
}

func TestWatchdogMonitorLagGrowing(t *testing.T) {
	w := newWatchdog()
	w.window, w.lagFloor = 3, 100*time.Millisecond

	falling := newHistory()
	feedHistory(falling, 3, nil, nil, nil, func(i int) float64 { return 1.0 / float64(i+1) })
	if r := w.Evaluate(falling); r != "" {
		t.Fatalf("falling-lag Evaluate = %q, want \"\"", r)
	}

	growing := newHistory()
	feedHistory(growing, 3, nil, nil, nil, func(i int) float64 { return 0.2 * float64(i+1) })
	if r := w.Evaluate(growing); !strings.Contains(r, "monitor lag growing") {
		t.Fatalf("Evaluate = %q, want lag-growing", r)
	}

	// Growing but under the floor: jitter, not a stall.
	tiny := newHistory()
	feedHistory(tiny, 3, nil, nil, nil, func(i int) float64 { return 0.0001 * float64(i+1) })
	if r := w.Evaluate(tiny); r != "" {
		t.Fatalf("tiny-lag Evaluate = %q, want \"\"", r)
	}
}

// TestWatchdogFlipsReadyzAndGauge drives the sampler end to end: a
// stalled history must flip /readyz to 503 with the reason and raise
// obs_watchdog_stalled; recovery must clear both.
func TestWatchdogFlipsReadyzAndGauge(t *testing.T) {
	o := NewObserver()
	o.Watchdog.window = 3
	o.SetReady(true)
	commits, applies := 0.0, 0.0
	o.TrackRate(SeriesCommits, func() float64 { return commits })
	o.TrackRate(SeriesApplies, func() float64 { return applies })
	// Hook the watchdog the way StartHistory does, but tick manually for
	// determinism.
	o.History.onSample = func(h *History) { o.runWatchdog(h) }
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	base := time.Unix(9000, 0)
	tick := 0
	step := func() {
		tick++
		commits += 10 // commits always flowing
		o.History.sampleOnce(base.Add(time.Duration(tick) * time.Second))
	}

	for i := 0; i < 4; i++ { // baseline + full stalled window
		step()
	}
	if r := o.StallReason(); !strings.Contains(r, "commits without applies") {
		t.Fatalf("StallReason = %q", r)
	}
	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "stalled") {
		t.Fatalf("/readyz while stalled = %d %q", code, body)
	}
	if v := gaugeValue(t, o, "obs_watchdog_stalled"); v != 1 {
		t.Fatalf("obs_watchdog_stalled = %g, want 1", v)
	}

	for i := 0; i < 4; i++ { // recovery: applies catch up
		applies += 10
		step()
	}
	if r := o.StallReason(); r != "" {
		t.Fatalf("StallReason after recovery = %q", r)
	}
	if code, _ := get(t, srv, "/readyz"); code != 200 {
		t.Fatalf("/readyz after recovery = %d", code)
	}
	if v := gaugeValue(t, o, "obs_watchdog_stalled"); v != 0 {
		t.Fatalf("obs_watchdog_stalled = %g, want 0", v)
	}
}

// TestWatchdogQueueRecoveryClearsStall drives the queue-flat-high rule
// end to end through the sampler: a wedge (queue pinned at the cap)
// flips /readyz and the gauge, then the queue draining back down clears
// the stall, restores /readyz to 200, and zeroes the gauge.
func TestWatchdogQueueRecoveryClearsStall(t *testing.T) {
	o := NewObserver()
	o.Watchdog.window, o.Watchdog.queueHighWater = 3, 100
	o.SetReady(true)
	depth := 0.0
	o.TrackValue(SeriesQueueDepth, func() float64 { return depth })
	o.History.onSample = func(h *History) { o.runWatchdog(h) }
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	base := time.Unix(9500, 0)
	tick := 0
	step := func() {
		tick++
		o.History.sampleOnce(base.Add(time.Duration(tick) * time.Second))
	}

	// Wedge: the push queue pins at 512 and never drains.
	depth = 512
	for i := 0; i < 4; i++ { // baseline + full window
		step()
	}
	if r := o.StallReason(); !strings.Contains(r, "queue depth flat-high") {
		t.Fatalf("StallReason = %q, want queue-flat-high", r)
	}
	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "queue depth flat-high") {
		t.Fatalf("/readyz while wedged = %d %q", code, body)
	}
	if v := gaugeValue(t, o, "obs_watchdog_stalled"); v != 1 {
		t.Fatalf("obs_watchdog_stalled = %g, want 1", v)
	}

	// Recovery: the queue drains below the high-water mark. One falling
	// sample already breaks the flat-high window.
	for _, d := range []float64{300, 80, 0, 0} {
		depth = d
		step()
	}
	if r := o.StallReason(); r != "" {
		t.Fatalf("StallReason after drain = %q, want \"\"", r)
	}
	code, body = get(t, srv, "/readyz")
	if code != http.StatusOK || !strings.HasPrefix(body, "ready") {
		t.Fatalf("/readyz after drain = %d %q, want 200 ready", code, body)
	}
	if v := gaugeValue(t, o, "obs_watchdog_stalled"); v != 0 {
		t.Fatalf("obs_watchdog_stalled = %g, want 0", v)
	}
}

func gaugeValue(t *testing.T, o *Observer, name string) float64 {
	t.Helper()
	return o.Reg().Gauge(name, "").Value()
}

func TestReadyzDraining(t *testing.T) {
	o := NewObserver()
	o.SetReady(true)
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	if code, _ := get(t, srv, "/readyz"); code != 200 {
		t.Fatalf("/readyz = %d, want 200", code)
	}
	o.SetDraining()
	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("/readyz while draining = %d %q", code, body)
	}
	var nilo *Observer
	nilo.SetDraining() // must not panic
	if nilo.Draining() {
		t.Fatal("nil observer draining")
	}
}
