// Resilience: the controller's side of surviving connection loss.
//
// What a device should hold is a function of the engine's state: the
// records of its class's output relations (converted exactly as push
// converts them) plus the class's multicast membership. The controller
// keeps no second copy. Pushes to an unreachable device fail and are
// tolerated while the engine keeps advancing; when the connection heals,
// Resync diffs the device's actual tables (ReadTable) against what the
// engine says now and writes only the difference, so reconvergence costs
// one snapshot plus the drift, not a full replay.
package core

import (
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/p4rt"
)

// TableReader is the device surface Resync needs: implemented by
// *p4rt.Client (and *p4rt.ResilientClient). Data planes that cannot
// snapshot their tables simply never get resynced.
type TableReader interface {
	ReadTable(table string) ([]p4rt.TableEntry, error)
	Write(updates ...p4rt.Update) error
}

// entryIdent canonically identifies an entry slot: same table, matches
// and priority → same slot (action and params are the slot's value).
func entryIdent(e *p4rt.TableEntry) string {
	// Marshalling strings, ints and FieldMatch values cannot fail.
	b, _ := json.Marshal(struct {
		T string          `json:"t"`
		M []p4.FieldMatch `json:"m"`
		P int             `json:"p"`
	}{T: e.Table, M: e.Matches, P: e.Priority})
	return string(b)
}

// sameValue reports whether two entries program the same action.
func sameValue(a, b *p4rt.TableEntry) bool {
	return a.Action == b.Action && slices.Equal(a.Params, b.Params)
}

// resyncReq asks the event loop to reconcile one device against the
// engine's state using the given (freshly reconnected) connection.
type resyncReq struct {
	device string
	dp     TableReader
	done   chan error
}

// Resync reconciles device's actual tables against what the engine's
// output relations say it should hold, writing only the difference
// through dp. It is safe to call from any goroutine — the reconciliation
// itself runs serialized on the controller's event loop, so it observes
// the engine between transactions. Intended as the body of a p4rt
// ResilientClient OnReconnect hook, where dp is the fresh
// not-yet-published client.
func (c *Controller) Resync(device string, dp TableReader) error {
	req := &resyncReq{device: device, dp: dp, done: make(chan error, 1)}
	if !c.enqueue(event{source: "resync", resync: req}) {
		return fmt.Errorf("core: resync %s: controller stopped", device)
	}
	select {
	case err := <-req.done:
		return err
	case <-c.done:
		return fmt.Errorf("core: resync %s: controller stopped", device)
	}
}

// sortedKeys lists a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// desiredEntries derives what device should hold from the engine: every
// record of its class's output relations that targets it (or the whole
// class), keyed by entryIdent. Event-loop goroutine only.
func (c *Controller) desiredEntries(cs *classState, device string) (map[string]p4rt.TableEntry, error) {
	desired := make(map[string]p4rt.TableEntry)
	for rel, b := range cs.gen.Outputs {
		recs, err := c.rt.Contents(rel)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if dev := b.Device(rec); dev != "" && dev != device {
				continue
			}
			e, err := b.EntryFromRecord(rec)
			if err != nil {
				return nil, err
			}
			desired[entryIdent(&e)] = e
		}
	}
	return desired, nil
}

// doResync runs on the event loop. It reads every bound table of the
// device's class, diffs against the engine-derived entries, and writes
// deletes for stale entries, inserts for missing ones, and modifies for
// entries whose action drifted. Multicast groups cannot be read back, so
// every group of the class's membership state is re-pushed — SetMulticast
// is absolute, making that idempotent. Returns the first error (the
// caller's redial loop retries).
func (c *Controller) doResync(device string, dp TableReader) error {
	start := time.Now()
	cs := c.devClass[device]
	if cs == nil {
		return fmt.Errorf("core: resync: unknown device %q", device)
	}
	desired, err := c.desiredEntries(cs, device)
	if err != nil {
		return fmt.Errorf("core: resync %s: %w", device, err)
	}

	tables := make(map[string]bool)
	for _, b := range cs.gen.Outputs {
		tables[b.Table] = true
	}
	actual := make(map[string]p4rt.TableEntry)
	for _, table := range sortedKeys(tables) {
		entries, err := dp.ReadTable(table)
		if err != nil {
			return fmt.Errorf("core: resync %s: reading %s: %w", device, table, err)
		}
		for _, e := range entries {
			if e.Table == "" {
				e.Table = table
			}
			actual[entryIdent(&e)] = e
		}
	}

	var updates []p4rt.Update
	for _, key := range sortedKeys(actual) {
		if _, ok := desired[key]; !ok {
			updates = append(updates, p4rt.DeleteEntry(actual[key]))
		}
	}
	deleted := len(updates)
	for _, key := range sortedKeys(desired) {
		want := desired[key]
		got, ok := actual[key]
		switch {
		case !ok:
			updates = append(updates, p4rt.InsertEntry(want))
		case !sameValue(&got, &want):
			updates = append(updates, p4rt.ModifyEntry(want))
		}
	}
	// Class-wide groups first, then the device's own, so where rules
	// define a group both ways the device-specific membership lands last.
	for _, dev := range []string{"", device} {
		var groups []uint16
		for key := range cs.mcast {
			if key.device == dev {
				groups = append(groups, key.group)
			}
		}
		slices.Sort(groups)
		for _, g := range groups {
			updates = append(updates, p4rt.SetMulticast(g, sortedPorts(cs.mcast[mcastKey{device: dev, group: g}])))
		}
	}

	if len(updates) > 0 {
		if err := dp.Write(updates...); err != nil {
			return fmt.Errorf("core: resync %s: %w", device, err)
		}
	}
	c.m.resyncs.Inc()
	c.rec.Append(obs.Ev("core", "conn.resync").WithDevice(device).
		F("deleted", int64(deleted)).
		F("written", int64(len(updates)-deleted)).
		F("resync_us", time.Since(start).Microseconds()))
	return nil
}
