package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Fleet-wide hot-rule reporting: each member's /debug/rules report is
// merged by rule ID into one table ranked by summed EWMA cost, so an
// operator sees which control-plane rules are expensive across the
// whole deployment, not just on one process. Members run the same
// compiled program, so rule IDs ("Head#ordinal") line up; a member that
// happens to run a different program merely contributes disjoint rows.

// FleetRuleRow is one rule aggregated across members.
type FleetRuleRow struct {
	ID    string `json:"id"`
	Label string `json:"label,omitempty"`
	// Members counts members whose report included this rule.
	Members     int   `json:"members"`
	Seedings    int64 `json:"seedings"`
	Derivations int64 `json:"derivations"`
	DeltaTuples int64 `json:"delta_tuples"`
	EvalNs      int64 `json:"eval_ns"`
	// EwmaNs sums the members' EWMA per-transaction costs — the
	// fleet-wide hotness signal.
	EwmaNs float64 `json:"ewma_ns"`
	Share  float64 `json:"share"`
	// TopMember names the member where this rule is most expensive.
	TopMember string `json:"top_member,omitempty"`
}

// FleetRules is the merged hot-rule view on /fleet.
type FleetRules struct {
	// Members counts the members that reported a profiler surface.
	Members int            `json:"members"`
	Rules   []FleetRuleRow `json:"rules"`
	// Other aggregates rules beyond the fleet-wide top-K cut, plus the
	// members' own "other" rollups.
	Other *obs.OtherRow `json:"other,omitempty"`
}

// hotRules merges every member's last rule report into the bounded
// fleet-wide table.
func (a *Aggregator) hotRules() FleetRules {
	out := FleetRules{Rules: []FleetRuleRow{}}
	byID := make(map[string]*FleetRuleRow)
	topEwma := make(map[string]float64) // rule ID -> max single-member EWMA
	var order []string
	var other obs.OtherRow
	for _, m := range a.members {
		m.mu.Lock()
		name := m.name
		if m.identity.Instance != "" {
			name = m.identity.Instance
		}
		hasRules, rep := m.hasRules, m.rules
		m.mu.Unlock()
		if !hasRules {
			continue
		}
		out.Members++
		for _, r := range rep.Rules {
			row := byID[r.ID]
			if row == nil {
				row = &FleetRuleRow{ID: r.ID, Label: r.Label}
				byID[r.ID] = row
				order = append(order, r.ID)
			}
			if row.Label == "" {
				row.Label = r.Label
			}
			row.Members++
			row.Seedings += r.Seedings
			row.Derivations += r.Derivations
			row.DeltaTuples += r.DeltaTuples
			row.EvalNs += r.EvalNs
			row.EwmaNs += r.EwmaNs
			if r.EwmaNs > topEwma[r.ID] {
				topEwma[r.ID], row.TopMember = r.EwmaNs, name
			}
		}
		if o := rep.Other; o != nil {
			other.Count += o.Count
			other.Seedings += o.Seedings
			other.Derivations += o.Derivations
			other.DeltaTuples += o.DeltaTuples
			other.EvalNs += o.EvalNs
			other.EwmaNs += o.EwmaNs
		}
	}
	if len(order) == 0 {
		if other.Count > 0 {
			out.Other = &other
		}
		return out
	}
	rows := make([]*FleetRuleRow, 0, len(order))
	for _, id := range order {
		rows = append(rows, byID[id])
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].EwmaNs > rows[j].EwmaNs })
	var totalEwma float64
	for _, r := range rows {
		totalEwma += r.EwmaNs
	}
	totalEwma += other.EwmaNs
	for i, r := range rows {
		if i < a.ruleLimit {
			if totalEwma > 0 {
				r.Share = r.EwmaNs / totalEwma
			}
			out.Rules = append(out.Rules, *r)
			continue
		}
		other.Count++
		other.Seedings += r.Seedings
		other.Derivations += r.Derivations
		other.DeltaTuples += r.DeltaTuples
		other.EvalNs += r.EvalNs
		other.EwmaNs += r.EwmaNs
	}
	if other.Count > 0 || other.EwmaNs > 0 {
		if totalEwma > 0 {
			other.Share = other.EwmaNs / totalEwma
		}
		out.Other = &other
	}
	return out
}

// rulesText renders the fleet hot-rule table for the nerpa-top
// one-shot view.
func rulesText(b *strings.Builder, fr FleetRules) {
	if fr.Members == 0 {
		return
	}
	fmt.Fprintf(b, "hot rules (by EWMA cost, %d profiled member(s)):\n", fr.Members)
	fmt.Fprintf(b, "  %-24s %6s %12s %12s %12s  %s\n",
		"RULE", "SHARE", "EWMA", "DERIVS", "DELTA", "TOP MEMBER")
	for _, r := range fr.Rules {
		fmt.Fprintf(b, "  %-24s %5.1f%% %12s %12d %12d  %s\n",
			r.ID, r.Share*100, time.Duration(r.EwmaNs).Round(time.Microsecond),
			r.Derivations, r.DeltaTuples, r.TopMember)
	}
	if o := fr.Other; o != nil {
		fmt.Fprintf(b, "  %-24s %5.1f%% %12s %12d %12d\n",
			fmt.Sprintf("(other: %d rules)", o.Count), o.Share*100,
			time.Duration(o.EwmaNs).Round(time.Microsecond), o.Derivations, o.DeltaTuples)
	}
}
