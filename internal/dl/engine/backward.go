package engine

import (
	"errors"

	"repro/internal/dl/value"
)

// Deletion in a recursive stratum is the Backward/Forward algorithm
// (Motik, Nenov, Piro and Horrocks, AAAI 2015; "Maintenance of Datalog
// materialisations revisited", AIJ 2019): a fact is deleted only when no
// proof of it is left, so nothing is overdeleted or rederived. The heads
// of lost derivations are candidates. check(F) looks for an instance of
// F under the current view whose in-stratum body facts are all proved
// (lower strata are settled), checking those body facts first; a checked
// fact is never its own support. Each proved fact is saturated: forward
// chaining from it proves the checked facts it now derives, which
// resolves a cycle's support. What a top-level check leaves checked but
// unproved is deleted, and each deletion seeds its in-stratum
// occurrences under the old view to find more candidates. Provenance
// follows: runs that find lost derivations carry weight -1 and unrecord
// them, and a proof is recorded as its fact's first derivation.

// bfMark is a fact's state in one recursive stratum's deletion; every
// mark is cleared when the deletion ends.
type bfMark uint8

const (
	unchecked bfMark = iota
	checked          // a check ran on the fact and found no proof yet
	proved           // the fact has a proof from lower strata and proved facts
)

// candidate is a fact that lost a derivation by rule. The facts a check
// started from it deletes count as the rule's delta tuples (RuleStats).
type candidate struct {
	rule *compiledRule
	f    *fact
}

// backward is one recursive stratum's deletion state.
type backward struct {
	wl    *worklist
	cands []candidate
	// marked lists the facts with a mark, in marking order.
	marked []pending
}

// deleteUnproved deletes the stratum's facts that the transaction's
// lower-stratum changes left without a proof.
func (wl *worklist) deleteUnproved(rules []*compiledRule) error {
	rt := wl.rt
	b := &backward{wl: wl}
	defer func() {
		for _, pd := range b.marked {
			pd.f.mark = unchecked
		}
	}()
	if err := wl.seed(rules, false, -1, viewAllOld, b.lost); err != nil {
		return err
	}
	for len(b.cands) > 0 {
		c := b.cands[len(b.cands)-1]
		b.cands = b.cands[:len(b.cands)-1]
		if c.f.mark != unchecked || c.f.count <= 0 {
			continue
		}
		from := len(b.marked)
		if err := b.check(c.rule.head, c.f); err != nil {
			return err
		}
		for _, pd := range b.marked[from:] {
			if pd.f.mark == checked {
				pd.rel.setAbsent(pd.f)
				wl.queue = append(wl.queue, pd)
				if rt.ruleProf != nil {
					rt.ruleProf[c.rule.idx].delta++
				}
			}
		}
		if err := wl.drain(-1, viewAllOld, b.lost); err != nil {
			return err
		}
	}
	return nil
}

// lost returns the emit of a derivation the transaction took away: its
// head becomes a candidate unless it is already absent or checked.
func (b *backward) lost(cr *compiledRule) emitFunc {
	rt := b.wl.rt
	return func(rec value.Record, key string, _ uint64, _ int64) error {
		rt.derivations++
		if f := cr.head.internKey(rec, key); f.count > 0 && f.mark == unchecked {
			b.cands = append(b.cands, candidate{rule: cr, f: f})
		}
		return nil
	}
}

// check runs the backward phase on f, a fact of rs. Plan runs are not
// re-entrant, so each instance's unchecked in-stratum body facts are
// collected first and checked after the runs, until f is proved.
func (b *backward) check(rs *relState, f *fact) error {
	rt := b.wl.rt
	f.mark = checked
	b.marked = append(b.marked, pending{rel: rs, f: f})
	var todo []pending
	for _, cr := range rt.rulesByHead[rs] {
		err := rt.runPlan(&rt.ctx, cr.checkPlan, f.rec, f.key, 0, viewAllNew, func(value.Record, string, uint64, int64) error {
			rt.derivations++
			ok := true
			for _, t := range rt.ctx.trail {
				if t.rs.stratum != rs.stratum {
					continue
				}
				g := t.rs.facts[t.key]
				if g.mark == unchecked {
					todo = append(todo, pending{rel: t.rs, f: g})
				}
				ok = ok && g.mark == proved
			}
			if !ok {
				return nil
			}
			b.prove(cr, f)
			return errStop
		})
		if errors.Is(err, errStop) {
			return b.wl.drain(0, viewAllNew, b.prover)
		}
		if err != nil {
			return err
		}
	}
	for _, pd := range todo {
		if f.mark == proved {
			break
		}
		if pd.f.mark == unchecked {
			if err := b.check(pd.rel, pd.f); err != nil {
				return err
			}
		}
	}
	return nil
}

// prove marks f, a checked head of cr, proved by the instance on the
// trail, records that derivation, and queues f for saturation.
func (b *backward) prove(cr *compiledRule, f *fact) {
	rt := b.wl.rt
	f.mark = proved
	if rt.prov != nil {
		rt.recordProv(&rt.ctx, cr, f, 1, rt.ctx.trail, true)
	}
	b.wl.queue = append(b.wl.queue, pending{rel: cr.head, f: f})
}

// prover is saturation's emit: a checked head whose in-stratum body facts
// are all proved is proved in turn.
func (b *backward) prover(cr *compiledRule) emitFunc {
	rt := b.wl.rt
	return func(rec value.Record, key string, _ uint64, _ int64) error {
		rt.derivations++
		f := cr.head.internKey(rec, key)
		if f.mark != checked {
			return nil
		}
		for _, t := range rt.ctx.trail {
			if t.rs.stratum == cr.head.stratum && t.rs.facts[t.key].mark != proved {
				return nil
			}
		}
		b.prove(cr, f)
		return nil
	}
}
