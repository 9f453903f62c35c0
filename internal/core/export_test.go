package core

import "repro/internal/dl/value"

// This file exports, to the tests of this directory only, what the
// full-stack harness asks the controller between transactions.

// DriftCount reads device's tables through dp on the event loop, as a
// resync does, and returns how many entries drift from what the engine
// derives: stale, missing and modified together. Multicast groups cannot
// be read back and are not counted.
func (c *Controller) DriftCount(device string, dp TableReader) (int, error) {
	var n int
	var err error
	if lerr := c.onLoop(func() {
		var d *drift
		if d, err = c.readDrift(device, dp); err == nil {
			n = len(d.stale) + len(d.missing) + len(d.modified)
		}
	}); lerr != nil {
		return 0, lerr
	}
	return n, err
}

// LoopContents reads the named relations on the event loop.
func (c *Controller) LoopContents(rels []string) (map[string][]value.Record, error) {
	out := make(map[string][]value.Record, len(rels))
	var err error
	if lerr := c.onLoop(func() {
		for _, rel := range rels {
			if out[rel], err = c.rt.Contents(rel); err != nil {
				return
			}
		}
	}); lerr != nil {
		return nil, lerr
	}
	return out, err
}
