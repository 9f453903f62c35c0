package fleet

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// expectedStages is the canonical full-stack timeline. A stitched
// trace missing any of them is flagged incomplete with the gaps named,
// which is how a partially-propagated transaction (e.g. one whose push
// never reached the switch) shows up on /fleet/traces.
var expectedStages = []string{
	obs.StageCommit, "monitor", "delta", "push", obs.StageSwitchApplied,
}

// causalStages is the order the stack guarantees between stages: the
// expected ones, with each device's write (inside the push, recorded by
// the controller) before the switch's apply it causes. A commit of a
// coalesced batch other than the last has no write, so write is not
// expected.
var causalStages = []string{
	obs.StageCommit, "monitor", "delta", "push", "write", obs.StageSwitchApplied,
}

// StitchedStage is one stage of a cross-process timeline, attributed
// to the member that recorded it. Start/End are skew-corrected onto
// the aggregator's clock so stages from different hosts order
// correctly.
type StitchedStage struct {
	Name   string           `json:"name"`
	Member string           `json:"member"`
	Plane  string           `json:"plane,omitempty"`
	Start  time.Time        `json:"start"`
	End    time.Time        `json:"end"`
	Device string           `json:"device,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// StitchedTrace is one transaction's fleet-wide timeline, fused from
// the trace fragments each member holds for the same txn ID.
type StitchedTrace struct {
	TxnID  uint64          `json:"txn_id"`
	Stages []StitchedStage `json:"stages"`
	// Missing names the expected stages absent from the fused timeline
	// (empty when complete). A missing tail means the transaction has
	// not yet — or never — converged onto the data plane.
	Missing []string `json:"missing,omitempty"`
	// Complete is true when every expected stage is present.
	Complete bool `json:"complete"`
	// ConvergenceNs is the skew-corrected commit→switch-applied
	// latency, present once both bounding stages are (0 otherwise).
	ConvergenceNs int64 `json:"convergence_ns,omitempty"`
	// Members lists the instances that contributed stages.
	Members []string `json:"members"`
}

// restitch rebuilds the stitched-trace store from every member's
// current trace ring. Transactions evicted from member rings keep
// their last stitched form until the store's own FIFO bound evicts
// them.
func (a *Aggregator) restitch() {
	type fragment struct {
		member, plane string
		skew          time.Duration
		tr            obs.Trace
	}
	byTxn := make(map[uint64][]fragment)
	for _, m := range a.members {
		m.mu.Lock()
		name := m.name
		if m.identity.Instance != "" {
			name = m.identity.Instance
		}
		plane, skew := m.identity.Plane, m.skew
		traces := m.traces
		m.mu.Unlock()
		for _, tr := range traces {
			byTxn[tr.TxnID] = append(byTxn[tr.TxnID], fragment{member: name, plane: plane, skew: skew, tr: tr})
		}
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	for txn, frags := range byTxn {
		st := &StitchedTrace{TxnID: txn}
		seen := map[string]bool{}
		memberSet := map[string]bool{}
		for _, f := range frags {
			if !memberSet[f.member] {
				memberSet[f.member] = true
				st.Members = append(st.Members, f.member)
			}
			for _, sg := range f.tr.Stages {
				seen[sg.Name] = true
				st.Stages = append(st.Stages, StitchedStage{
					Name:   sg.Name,
					Member: f.member,
					Plane:  f.plane,
					// Subtracting the member's skew maps its wall clock onto
					// the aggregator's, so cross-host stage ordering holds.
					Start:  sg.Start.Add(-f.skew),
					End:    sg.End.Add(-f.skew),
					Device: sg.Device,
					Attrs:  sg.Attrs(),
				})
			}
		}
		causalOrder(st.Stages)
		sort.Strings(st.Members)
		for _, name := range expectedStages {
			if !seen[name] {
				st.Missing = append(st.Missing, name)
			}
		}
		st.Complete = len(st.Missing) == 0

		// Convergence: first commit start to last switch-applied end.
		var commitStart, appliedEnd time.Time
		for i := range st.Stages {
			switch st.Stages[i].Name {
			case obs.StageCommit:
				if commitStart.IsZero() || st.Stages[i].Start.Before(commitStart) {
					commitStart = st.Stages[i].Start
				}
			case obs.StageSwitchApplied:
				if st.Stages[i].End.After(appliedEnd) {
					appliedEnd = st.Stages[i].End
				}
			}
		}
		if !commitStart.IsZero() && !appliedEnd.IsZero() {
			st.ConvergenceNs = appliedEnd.Sub(commitStart).Nanoseconds()
			if !a.convSeen[txn] {
				a.convSeen[txn] = true
				a.observeConvergenceLocked(float64(st.ConvergenceNs) / 1e9)
			}
		}

		if _, ok := a.stitched[txn]; !ok {
			a.order = append(a.order, txn)
		}
		a.stitched[txn] = st
	}
	// FIFO-evict beyond capacity.
	for len(a.order) > traceCapacity {
		old := a.order[0]
		a.order = a.order[1:]
		delete(a.stitched, old)
		delete(a.convSeen, old)
	}
}

// causalOrder sorts one transaction's stages by skew-corrected start
// time after restoring the order the stack guarantees but a skew
// estimate may not: each causal stage is caused by the one before it
// (the controller computes its delta from the monitor update, the
// switch applies inside the controller's synchronous write), so no stage
// starts before its predecessor did. A skew estimate taken from an HTTP
// poll is only good to about half the poll's round trip, which on one
// host exceeds the push→apply gap; a stage it places ahead of its cause
// is moved, whole, to start with it, and equal starts sort by causal
// rank.
func causalOrder(stages []StitchedStage) {
	rank := func(name string) int {
		for r, n := range causalStages {
			if n == name {
				return r
			}
		}
		return len(causalStages)
	}
	var cause time.Time // earliest start of the nearest present predecessor
	for _, name := range causalStages {
		var first time.Time
		for i := range stages {
			sg := &stages[i]
			if sg.Name != name {
				continue
			}
			if d := cause.Sub(sg.Start); !cause.IsZero() && d > 0 {
				sg.Start, sg.End = sg.Start.Add(d), sg.End.Add(d)
			}
			if first.IsZero() || sg.Start.Before(first) {
				first = sg.Start
			}
		}
		if !first.IsZero() {
			cause = first
		}
	}
	sort.SliceStable(stages, func(i, j int) bool {
		if !stages[i].Start.Equal(stages[j].Start) {
			return stages[i].Start.Before(stages[j].Start)
		}
		return rank(stages[i].Name) < rank(stages[j].Name)
	})
}

// observeConvergenceLocked records one convergence sample (bounded
// window for percentiles, unbounded count/sum).
func (a *Aggregator) observeConvergenceLocked(seconds float64) {
	a.convCnt++
	a.convSum += seconds
	const window = 1024
	if len(a.convObs) >= window {
		copy(a.convObs, a.convObs[1:])
		a.convObs = a.convObs[:window-1]
	}
	a.convObs = append(a.convObs, seconds)
}

// Trace returns the stitched timeline for one transaction.
func (a *Aggregator) Trace(txn uint64) (StitchedTrace, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.stitched[txn]
	if !ok {
		return StitchedTrace{}, false
	}
	return *st, true
}

// Traces returns up to n stitched timelines, oldest first (n <= 0
// means all retained).
func (a *Aggregator) Traces(n int) []StitchedTrace {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := a.order
	if n > 0 && len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	out := make([]StitchedTrace, 0, len(ids))
	for _, id := range ids {
		out = append(out, *a.stitched[id])
	}
	return out
}
