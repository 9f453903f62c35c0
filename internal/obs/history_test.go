package obs

import (
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"
)

func TestHistorySampleKinds(t *testing.T) {
	h := newHistory()
	var counter, gauge, hSum, hCount float64
	h.TrackRate("rate_total", func() float64 { return counter })
	h.TrackValue("depth", func() float64 { return gauge })
	h.TrackAvg("lat_seconds", func() float64 { return hSum }, func() float64 { return hCount })

	base := time.Unix(5000, 0)
	h.sampleOnce(base) // baseline: rate/avg push nothing, value pushes

	counter, gauge = 10, 3
	hSum, hCount = 0.5, 5
	h.sampleOnce(base.Add(2 * time.Second))

	counter, gauge = 10, 7
	// No histogram observations this tick: avg must be 0, not NaN.
	h.sampleOnce(base.Add(4 * time.Second))

	rate := h.Last("rate_total", 0)
	if len(rate) != 2 {
		t.Fatalf("rate has %d samples, want 2 (baseline pushes none)", len(rate))
	}
	if rate[0].Value != 5 { // 10 counts over 2s
		t.Fatalf("rate[0] = %g, want 5/s", rate[0].Value)
	}
	if rate[1].Value != 0 {
		t.Fatalf("rate[1] = %g, want 0 (counter flat)", rate[1].Value)
	}

	depth := h.Last("depth", 0)
	if len(depth) != 3 || depth[0].Value != 0 || depth[1].Value != 3 || depth[2].Value != 7 {
		t.Fatalf("value series wrong: %+v", depth)
	}

	avg := h.Last("lat_seconds", 0)
	if len(avg) != 2 || avg[0].Value != 0.1 || avg[1].Value != 0 {
		t.Fatalf("avg series wrong: %+v", avg)
	}
}

func TestHistoryRingAndDuplicateTrack(t *testing.T) {
	h := newHistory()
	h.cap = 4
	var v float64
	h.TrackValue("depth", func() float64 { return v })
	// Duplicate registration: first wins, no second series.
	h.TrackValue("depth", func() float64 { return -1 })
	base := time.Unix(6000, 0)
	for i := 0; i < 10; i++ {
		v = float64(i)
		h.sampleOnce(base.Add(time.Duration(i) * time.Second))
	}
	got := h.Last("depth", 0)
	if len(got) != 4 {
		t.Fatalf("ring retained %d samples, want 4", len(got))
	}
	for i, s := range got {
		if want := float64(6 + i); s.Value != want {
			t.Fatalf("sample %d = %g, want %g", i, s.Value, want)
		}
	}
	if h.Last("depth", 2)[0].Value != 8 {
		t.Fatal("Last(k) did not keep newest")
	}
}

func TestHistorySamplerStartStop(t *testing.T) {
	o := NewObserver()
	c := o.Reg().Counter("ticks_total", "t")
	o.TrackRate("ticks_total", func() float64 { return float64(c.Value()) })
	o.StartHistory(5 * time.Millisecond)
	defer o.StopHistory()
	deadline := time.Now().Add(2 * time.Second)
	for len(o.Hist().Last("ticks_total", 0)) == 0 {
		c.Inc()
		if time.Now().After(deadline) {
			t.Fatal("sampler produced no rate samples")
		}
		time.Sleep(time.Millisecond)
	}
	o.StopHistory()
	o.StopHistory() // idempotent
	n := len(o.Hist().Last("ticks_total", 0))
	time.Sleep(20 * time.Millisecond)
	if got := len(o.Hist().Last("ticks_total", 0)); got != n {
		t.Fatalf("sampler still running after Stop: %d -> %d samples", n, got)
	}
}

func TestDebugHistoryEndpoint(t *testing.T) {
	o := NewObserver()
	var depth float64
	o.TrackValue("core_queue_depth", func() float64 { return depth })
	o.TrackValue("other_series", func() float64 { return 1 })
	base := time.Unix(7000, 0)
	for i := 0; i < 3; i++ {
		depth = float64(10 * i)
		o.Hist().sampleOnce(base.Add(time.Duration(i) * time.Second))
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	// Without ?series= the endpoint answers with the catalog of series
	// names, not the full sample dump.
	var names struct {
		Capacity int      `json:"capacity"`
		Series   []string `json:"series"`
	}
	if err := json.Unmarshal([]byte(get2(t, srv, "/debug/history")), &names); err != nil {
		t.Fatal(err)
	}
	if len(names.Series) != 2 || names.Capacity != historySamples {
		t.Fatalf("name catalog has %d series, capacity %d", len(names.Series), names.Capacity)
	}
	if names.Series[0] != "core_queue_depth" || names.Series[1] != "other_series" {
		t.Fatalf("name catalog wrong: %v", names.Series)
	}

	var dump struct {
		Capacity int `json:"capacity"`
		Series   []struct {
			Name    string   `json:"name"`
			Kind    string   `json:"kind"`
			Last    float64  `json:"last"`
			Delta   float64  `json:"delta"`
			Min     float64  `json:"min"`
			Max     float64  `json:"max"`
			Samples []Sample `json:"samples"`
		} `json:"series"`
	}

	if err := json.Unmarshal([]byte(get2(t, srv, "/debug/history?series=core_queue_depth&n=2")), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Series) != 1 {
		t.Fatalf("?series= returned %d series, want 1", len(dump.Series))
	}
	s := dump.Series[0]
	if s.Name != "core_queue_depth" || s.Kind != "value" || len(s.Samples) != 2 {
		t.Fatalf("series wrong: %+v", s)
	}
	if s.Last != 20 || s.Delta != 10 || s.Min != 10 || s.Max != 20 {
		t.Fatalf("summary wrong: last=%g delta=%g min=%g max=%g", s.Last, s.Delta, s.Min, s.Max)
	}
}
