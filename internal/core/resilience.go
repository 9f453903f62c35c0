// Resilience: the controller's side of surviving connection loss.
//
// What a device should hold is a function of the engine's state: the
// records of its class's output relations (converted exactly as a push
// converts them) plus the class's multicast membership. The controller
// keeps no second copy. Pushes to an unreachable device fail and are
// tolerated while the engine keeps advancing; when the connection heals,
// Resync reads the device's actual tables (ReadTable), asks the step
// how far they drift from what the engine says now, and writes only the
// difference, so reconvergence costs one snapshot plus the drift, not a
// full replay.
package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/p4rt"
)

// TableReader is the device surface Resync needs: implemented by
// *p4rt.Client (and *p4rt.ResilientClient). Data planes that cannot
// snapshot their tables simply never get resynced.
type TableReader interface {
	ReadTable(table string) ([]p4rt.TableEntry, error)
	Write(updates ...p4rt.Update) error
}

// reconnector is a self-healing device (*p4rt.ResilientClient): the
// controller installs a resync that publishes as the hook every fresh
// session runs.
type reconnector interface {
	OnReconnect(func(c *p4rt.Client, publish func() bool) error)
}

// Resync reconciles device's actual tables against what the engine's
// output relations say it should hold, writing only the difference
// through dp. It is safe to call from any goroutine — the reconciliation
// itself runs serialized on the controller's event loop, so it observes
// the engine between transactions.
func (c *Controller) Resync(device string, dp TableReader) error {
	return c.resyncThen(device, dp, nil)
}

// resyncThen is Resync followed, once it succeeded, by publish (when
// non-nil) in the same event-loop event. It is the OnReconnect hook the
// controller installs on every device that has one, where dp is the
// fresh not-yet-published session: no push can run between the resync
// and the publication, so a published session never lacks a write.
func (c *Controller) resyncThen(device string, dp TableReader, publish func() bool) error {
	var err error
	if c.onLoop(func() {
		if err = c.Err(); err != nil {
			err = fmt.Errorf("core: resync %s: controller failed: %w", device, err)
		} else if err = c.doResync(device, dp); err == nil && publish != nil {
			publish()
		}
	}) != nil {
		return fmt.Errorf("core: resync %s: controller stopped", device)
	}
	return err
}

// doResync runs on the event loop. It reads every bound table of the
// device's class, takes the step's drift against them, and writes what
// closes it: deletes for stale entries, inserts for missing ones,
// modifies for entries whose action drifted, and every multicast group
// of the device (groups cannot be read back), which leaves the device
// level with the engine. Returns the first error (the caller's redial
// loop retries).
func (c *Controller) doResync(device string, dp TableReader) error {
	start := time.Now()
	d, err := c.readDrift(device, dp)
	if err != nil {
		return fmt.Errorf("core: resync %s: %w", device, err)
	}
	updates := slices.Concat(d.stale, d.missing, d.modified, d.groups)
	if len(updates) > 0 {
		if err := dp.Write(updates...); err != nil {
			return fmt.Errorf("core: resync %s: %w", device, err)
		}
	}
	c.m.resyncs.Inc()
	c.rec.Append(obs.Ev("core", "conn.resync").WithDevice(device).
		F("deleted", int64(len(d.stale))).
		F("written", int64(len(updates)-len(d.stale))).
		F("resync_us", time.Since(start).Microseconds()))
	return nil
}

// readDrift reads every bound table of device's class through dp and
// returns the step's drift against what it holds. It runs on the event
// loop.
func (c *Controller) readDrift(device string, dp TableReader) (*drift, error) {
	cs := c.devClass[device]
	if cs == nil {
		return nil, fmt.Errorf("unknown device %q", device)
	}
	var actual []p4rt.TableEntry
	for _, table := range cs.tables {
		entries, err := dp.ReadTable(table)
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", table, err)
		}
		for _, e := range entries {
			if e.Table == "" {
				e.Table = table
			}
			actual = append(actual, e)
		}
	}
	return c.drift(device, actual)
}
