package obs

import (
	"fmt"
	"time"
)

// Stall watchdog: derives plane health from the metrics history rather
// than from instantaneous state. A wedged stack rarely reports an
// error — it just stops making progress — so the watchdog looks for the
// shapes a wedge leaves in the history rings: commits arriving with no
// applies, a push queue pinned high, monitor lag growing tick over
// tick. When a rule trips, /readyz flips to 503 with the reason and the
// obs_watchdog_stalled gauge goes to 1; when the history recovers, both
// clear.

// Canonical history series names the watchdog consumes. Components
// track them under these names (when the corresponding plane runs in
// this process; absent series simply disable the rules that need them).
const (
	SeriesCommits       = "ovsdb_txn_total"           // rate: committed transactions/s
	SeriesApplies       = "core_txn_total"            // rate: controller-applied transactions/s
	SeriesQueueDepth    = "core_queue_depth"          // value: controller event-queue depth
	SeriesMonitorLag    = "ovsdb_monitor_lag_seconds" // avg: commit→monitor delivery lag
	SeriesPushLatency   = "core_push_seconds"         // avg: data-plane push latency
	SeriesEngineLatency = "core_engine_seconds"       // avg: incremental evaluation latency
)

// The stall rules' thresholds.
const (
	// watchdogWindow is how many consecutive samples a condition must
	// hold for.
	watchdogWindow = 5
	// watchdogQueueHighWater is the event-queue depth considered "high"
	// (the controller queue caps at 1024).
	watchdogQueueHighWater = 256
	// watchdogLagFloor is the minimum monitor lag before growth counts as
	// a stall (filters out microsecond-scale jitter).
	watchdogLagFloor = 250 * time.Millisecond
)

// Watchdog evaluates the stall rules against a History.
type Watchdog struct {
	window         int
	queueHighWater float64
	lagFloor       time.Duration
}

func newWatchdog() *Watchdog {
	return &Watchdog{window: watchdogWindow, queueHighWater: watchdogQueueHighWater, lagFloor: watchdogLagFloor}
}

// Evaluate returns "" when healthy, or a human-readable stall reason.
// Each rule needs a full window of samples for every series it reads;
// series the process doesn't track leave their rules inert.
func (w *Watchdog) Evaluate(h *History) string {
	if w == nil || h == nil {
		return ""
	}
	win := w.window

	// Rule 1: commits flowing, zero applies — the controller is wedged
	// between monitor delivery and the engine.
	commits := h.Last(SeriesCommits, win)
	applies := h.Last(SeriesApplies, win)
	if len(commits) == win && len(applies) == win {
		var cSum, aSum float64
		for _, s := range commits {
			cSum += s.Value
		}
		for _, s := range applies {
			aSum += s.Value
		}
		if cSum > 0 && aSum == 0 {
			return fmt.Sprintf("commits without applies: %.3g commits/s over the last %d samples, 0 applied", cSum/float64(win), win)
		}
	}

	// Rule 2: push queue depth flat-high — events are arriving faster
	// than pushes drain, and it is not recovering.
	queue := h.Last(SeriesQueueDepth, win)
	if len(queue) == win {
		high := true
		for _, s := range queue {
			if s.Value < w.queueHighWater {
				high = false
				break
			}
		}
		if high && queue[win-1].Value >= queue[0].Value {
			return fmt.Sprintf("push queue depth flat-high: %d samples >= %g (now %g)", win, w.queueHighWater, queue[win-1].Value)
		}
	}

	// Rule 3: monitor lag growing monotonically above the floor — the
	// monitor fan-out is falling behind commit order.
	lag := h.Last(SeriesMonitorLag, win)
	if len(lag) == win {
		growing := lag[win-1].Value > w.lagFloor.Seconds()
		for i := 1; i < win && growing; i++ {
			if lag[i].Value <= lag[i-1].Value || lag[i-1].Value == 0 {
				growing = false
			}
		}
		if growing {
			return fmt.Sprintf("monitor lag growing: %.3gs and rising over %d samples", lag[win-1].Value, win)
		}
	}
	return ""
}

// runWatchdog is the history tick hook: evaluate, then flip the stall
// state and gauge accordingly.
func (o *Observer) runWatchdog(h *History) {
	if o == nil || o.Watchdog == nil {
		return
	}
	reason := o.Watchdog.Evaluate(h)
	o.setStall(reason)
}

// setStall records the current stall reason ("" = healthy) and mirrors
// it into obs_watchdog_stalled.
func (o *Observer) setStall(reason string) {
	if o == nil {
		return
	}
	o.stall.Store(reason)
	if reason == "" {
		o.mStalled.Set(0)
	} else {
		o.mStalled.Set(1)
	}
}

// StallReason returns the watchdog's current verdict ("" = healthy).
func (o *Observer) StallReason() string {
	if o == nil {
		return ""
	}
	s, _ := o.stall.Load().(string)
	return s
}
