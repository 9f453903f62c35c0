package engine

import "time"

// StratumStats times one stratum's propagation within a single Apply.
type StratumStats struct {
	Stratum   int
	Recursive bool
	Duration  time.Duration
}

// ApplyStats describes one transaction's evaluation when Options.Collect
// is set; with Collect false none of this code runs.
type ApplyStats struct {
	Strata      []StratumStats
	Derivations int64
	// DeltaSize is the total number of tuple changes across all output
	// relations' deltas.
	DeltaSize int
	// Rules attributes the transaction's evaluation per rule (rules with
	// no activity are omitted).
	Rules []RuleStats
}

// LastApplyStats returns the statistics of the most recent Apply, or nil
// when Options.Collect is unset. The returned value is owned by the
// runtime and valid until the next Apply.
func (rt *Runtime) LastApplyStats() *ApplyStats { return rt.lastStats }

// NumStrata returns the number of evaluation strata in the compiled
// program (useful for pre-registering per-stratum metrics).
func (rt *Runtime) NumStrata() int { return len(rt.strata) }
