package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// In-process metrics history: a sampler goroutine periodically reads
// selected counters/gauges/histograms and stores a derived value per
// tick into fixed-size rings — counter rates (per second), gauge
// values, and histogram interval averages (Δsum/Δcount). /debug/history
// then answers "what did push latency look like over the last ten
// minutes" without an external Prometheus, and the stall watchdog
// derives plane health from the same rings.

// Sample is one point of a history series.
type Sample struct {
	Time  time.Time `json:"t"`
	Value float64   `json:"v"`
}

// SeriesKind says how a series' per-tick value is derived from its
// underlying instrument.
type SeriesKind string

const (
	// KindRate stores the counter's increase per second since the last
	// tick.
	KindRate SeriesKind = "rate"
	// KindValue stores the gauge's (or function's) current value.
	KindValue SeriesKind = "value"
	// KindAvg stores the mean of the histogram observations made since
	// the last tick (0 when none were made).
	KindAvg SeriesKind = "avg"
)

// hSeries is one tracked series: a cumulative reader plus its ring.
type hSeries struct {
	name string
	kind SeriesKind
	read func() (sum, count float64)

	lastSum, lastCount float64
	buf                []Sample
	n                  uint64 // samples ever pushed
}

func (s *hSeries) push(t time.Time, v float64) {
	s.buf[s.n%uint64(len(s.buf))] = Sample{Time: t, Value: v}
	s.n++
}

// last returns up to k newest samples, oldest first.
func (s *hSeries) last(k int) []Sample {
	retained := int(s.n)
	if retained > len(s.buf) {
		retained = len(s.buf)
	}
	if k <= 0 || k > retained {
		k = retained
	}
	out := make([]Sample, 0, k)
	for i := s.n - uint64(k); i < s.n; i++ {
		out = append(out, s.buf[i%uint64(len(s.buf))])
	}
	return out
}

// historySamples is the per-series ring size of an observer's history.
const historySamples = 512

// DefaultHistoryInterval is the sampling interval when Start is given
// d <= 0.
const DefaultHistoryInterval = time.Second

// History holds the tracked series and the sampler state. A nil
// *History ignores tracking and sampling.
type History struct {
	mu       sync.Mutex
	cap      int
	series   []*hSeries
	byName   map[string]*hSeries
	lastTick time.Time
	interval time.Duration
	stop     chan struct{}
	// onSample, when set, runs after every tick outside the lock (the
	// watchdog hook).
	onSample func(*History)
}

// newHistory creates a history whose series each retain historySamples
// samples.
func newHistory() *History {
	return &History{cap: historySamples, byName: make(map[string]*hSeries)}
}

// track registers one series; the first registration of a name wins.
func (h *History) track(name string, kind SeriesKind, read func() (float64, float64)) {
	if h == nil || read == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, dup := h.byName[name]; dup {
		return
	}
	s := &hSeries{name: name, kind: kind, read: read, buf: make([]Sample, h.cap)}
	h.byName[name] = s
	h.series = append(h.series, s)
}

// TrackRate samples read() as a cumulative counter, storing its rate.
func (h *History) TrackRate(name string, read func() float64) {
	h.track(name, KindRate, func() (float64, float64) { return read(), 0 })
}

// TrackValue samples read() as an instantaneous value.
func (h *History) TrackValue(name string, read func() float64) {
	h.track(name, KindValue, func() (float64, float64) { return read(), 0 })
}

// TrackAvg samples a histogram's cumulative sum and count, storing the
// per-interval mean observation.
func (h *History) TrackAvg(name string, sum, count func() float64) {
	if sum == nil || count == nil {
		return
	}
	h.track(name, KindAvg, func() (float64, float64) { return sum(), count() })
}

// sampleOnce takes one sample of every series at the given instant. The
// first tick only establishes baselines for rate/avg series (their
// deltas need two readings).
func (h *History) sampleOnce(now time.Time) {
	if h == nil {
		return
	}
	h.mu.Lock()
	first := h.lastTick.IsZero()
	elapsed := now.Sub(h.lastTick).Seconds()
	for _, s := range h.series {
		sum, count := s.read()
		switch s.kind {
		case KindValue:
			s.push(now, sum)
		case KindRate:
			if !first && elapsed > 0 {
				s.push(now, (sum-s.lastSum)/elapsed)
			}
		case KindAvg:
			if !first {
				v := 0.0
				if dc := count - s.lastCount; dc > 0 {
					v = (sum - s.lastSum) / dc
				}
				s.push(now, v)
			}
		}
		s.lastSum, s.lastCount = sum, count
	}
	h.lastTick = now
	cb := h.onSample
	h.mu.Unlock()
	if cb != nil {
		cb(h)
	}
}

// Start launches the sampler goroutine at the given interval (<= 0
// selects DefaultHistoryInterval). A second Start is a no-op until Stop.
func (h *History) Start(interval time.Duration) {
	if h == nil {
		return
	}
	if interval <= 0 {
		interval = DefaultHistoryInterval
	}
	h.mu.Lock()
	if h.stop != nil {
		h.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	h.stop = stop
	h.interval = interval
	h.mu.Unlock()
	// Baseline immediately so the first interval's deltas are usable.
	h.sampleOnce(time.Now())
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				h.sampleOnce(now)
			}
		}
	}()
}

// Stop halts the sampler goroutine (retained samples stay readable).
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.mu.Lock()
	stop := h.stop
	h.stop = nil
	h.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}

// Last returns up to k newest samples of one series, oldest first.
func (h *History) Last(name string, k int) []Sample {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.byName[name]
	if s == nil {
		return nil
	}
	return s.last(k)
}

// Names returns the tracked series names in registration order.
func (h *History) Names() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.series))
	for i, s := range h.series {
		out[i] = s.name
	}
	return out
}

// historyNamesJSON is the /debug/history envelope when no series is
// selected: the catalog of names a ?series= query can ask for.
type historyNamesJSON struct {
	IntervalSeconds float64  `json:"interval_seconds"`
	Capacity        int      `json:"capacity"`
	Names           []string `json:"series"`
}

// WriteNamesJSON dumps the available series names (the no-?series=
// /debug/history answer).
func (h *History) WriteNamesJSON(w io.Writer) error {
	dump := historyNamesJSON{Names: []string{}}
	if h != nil {
		h.mu.Lock()
		dump.IntervalSeconds = h.interval.Seconds()
		dump.Capacity = h.cap
		for _, s := range h.series {
			dump.Names = append(dump.Names, s.name)
		}
		h.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// historySeriesJSON is one series in the /debug/history dump.
type historySeriesJSON struct {
	Name string     `json:"name"`
	Kind SeriesKind `json:"kind"`
	// Last is the newest sample value; Delta is Last minus the previous
	// sample (the computed per-tick change).
	Last    float64  `json:"last"`
	Delta   float64  `json:"delta"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Samples []Sample `json:"samples"`
}

// historyDump is the /debug/history JSON envelope.
type historyDump struct {
	IntervalSeconds float64             `json:"interval_seconds"`
	Capacity        int                 `json:"capacity"`
	Series          []historySeriesJSON `json:"series"`
}

// WriteJSON dumps the tracked series (name "" = all) with their newest
// n samples (n <= 0 = all retained) plus computed summary values.
func (h *History) WriteJSON(w io.Writer, name string, n int) error {
	dump := historyDump{Series: []historySeriesJSON{}}
	if h != nil {
		h.mu.Lock()
		dump.IntervalSeconds = h.interval.Seconds()
		dump.Capacity = h.cap
		for _, s := range h.series {
			if name != "" && s.name != name {
				continue
			}
			sj := historySeriesJSON{Name: s.name, Kind: s.kind, Samples: s.last(n)}
			for i, sm := range sj.Samples {
				if i == 0 || sm.Value < sj.Min {
					sj.Min = sm.Value
				}
				if i == 0 || sm.Value > sj.Max {
					sj.Max = sm.Value
				}
			}
			if k := len(sj.Samples); k > 0 {
				sj.Last = sj.Samples[k-1].Value
				if k > 1 {
					sj.Delta = sj.Last - sj.Samples[k-2].Value
				}
			}
			dump.Series = append(dump.Series, sj)
		}
		h.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// --- Observer conveniences (all nil-safe) ---

// Hist returns the history (nil when the observer is disabled).
func (o *Observer) Hist() *History {
	if o == nil {
		return nil
	}
	return o.History
}

// TrackRate adds a counter-rate series to the history.
func (o *Observer) TrackRate(name string, read func() float64) { o.Hist().TrackRate(name, read) }

// TrackValue adds an instantaneous-value series to the history.
func (o *Observer) TrackValue(name string, read func() float64) { o.Hist().TrackValue(name, read) }

// TrackHistogramAvg adds a per-interval mean series for a histogram.
func (o *Observer) TrackHistogramAvg(name string, hist *Histogram) {
	if hist == nil {
		return
	}
	o.Hist().TrackAvg(name, hist.Sum, func() float64 { return float64(hist.Count()) })
}

// StartHistory starts the sampler at the given interval and hooks the
// stall watchdog to its ticks.
func (o *Observer) StartHistory(interval time.Duration) {
	if o == nil || o.History == nil {
		return
	}
	o.History.mu.Lock()
	o.History.onSample = func(h *History) { o.runWatchdog(h) }
	o.History.mu.Unlock()
	o.History.Start(interval)
}

// StopHistory halts the sampler.
func (o *Observer) StopHistory() { o.Hist().Stop() }
