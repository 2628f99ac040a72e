package core

import (
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
)

// This file implements the learning methods of Sections 3 and 4.1. All of
// them start from the per-value violated-higher-nogood sets that
// checkAgentView computed for the deadend (a.violatedHigher, indexed like
// a.domain), so derivation itself re-checks nothing it already knows;
// mcs-based learning pays extra checks for every subset test it performs.
//
// Derivation has a dense and a reference path, like the agent view itself
// (see refpath.go): the dense path gathers resolvent literals into a reused
// scratch slice and tests conflict-set candidates against a reused dense
// view, where the reference path chains Union allocations and builds a map
// assignment per candidate. Both charge identical checks and derive
// identical nogoods.

// deriveNogood dispatches on the configured learning kind. It must only be
// called at a deadend: every a.violatedHigher[i] is non-empty.
func (a *Agent) deriveNogood() csp.Nogood {
	resolvent := a.resolventNogood()
	if a.learning.Kind == LearnMCS {
		return a.minimumConflictSet(resolvent)
	}
	return resolvent
}

// resolventNogood is Section 3.1: for each domain value select one violated
// higher nogood — the smallest, ties broken toward the highest nogood
// priority — then union the selections with the own variable's literals
// removed. The result is a resolvent: it is violated under the current
// agent_view and mentions only other agents' variables.
func (a *Agent) resolventNogood() csp.Nogood {
	if a.learning.Reference {
		return a.resolventRef()
	}
	// Gather every selected literal into the scratch slice and canonicalize
	// once: duplicates collapse in MustNogood, and a contradiction is
	// impossible because every selected nogood is violated under the same
	// agent_view (MustNogood would panic, as the reference Union chain
	// does).
	a.litScratch = a.litScratch[:0]
	for i := range a.domain {
		selected := a.selectNogoodForValue(a.violatedHigher[i])
		// The selected entries are the derivation's cause set; the next
		// Learn event lists them. Nil-checked inside the tracer.
		a.causalT.Consult(selected)
		for j := 0; j < selected.Len(); j++ {
			if l := selected.At(j); l.Var != a.id {
				a.litScratch = append(a.litScratch, l)
			}
		}
	}
	return csp.MustNogood(a.litScratch...)
}

// selectNogoodForValue picks the smallest nogood; ties break toward the
// highest nogood priority ("a highly-prioritized variable generally makes a
// strong commitment to the current value, so we should notify the agent with
// such a variable as early as possible if such a value is wrong").
func (a *Agent) selectNogoodForValue(violated []csp.Nogood) csp.Nogood {
	best := violated[0]
	bestRank, bestHasRank := a.nogoodRank(best)
	for _, ng := range violated[1:] {
		switch {
		case ng.Len() < best.Len():
			best = ng
			bestRank, bestHasRank = a.nogoodRank(best)
		case ng.Len() == best.Len():
			r, hasRank := a.nogoodRank(ng)
			// A rank-less nogood (unary on the own variable) outranks all.
			if !bestHasRank {
				continue
			}
			if !hasRank || r.outranks(bestRank) {
				best = ng
				bestRank, bestHasRank = r, hasRank
			}
		}
	}
	return best
}

// minimumConflictSet implements mcs-based learning: search subsets of the
// resolvent "from larger subsets to smaller subsets" for the smallest one
// that is still a conflict set. Conflict-set monotonicity (a superset of a
// conflict set is a conflict set) makes stopping sound: if no subset of size
// s works, no smaller subset can.
//
// For resolvents up to the configured exhaustive limit all subsets of each
// size are enumerated, per the paper's description; larger resolvents fall
// back to greedy destructive minimization (drop a literal, keep the drop if
// the remainder is still a conflict set), which yields a minimal — not
// necessarily minimum — conflict set at O(len²·tests) cost. Both paths
// charge one nogood check per nogood evaluation, which is what makes Mcs
// maxcck expensive in Tables 1–3.
func (a *Agent) minimumConflictSet(resolvent csp.Nogood) csp.Nogood {
	limit := a.learning.MCSExhaustiveLimit
	if limit <= 0 {
		limit = DefaultMCSExhaustiveLimit
	}
	if resolvent.Len() > limit {
		return a.greedyConflictSet(resolvent)
	}

	lits := resolvent.Lits()
	best := resolvent
	for size := resolvent.Len() - 1; size >= 0; size-- {
		found := false
		forEachSubset(len(lits), size, func(idxs []int) bool {
			a.subScratch = a.subScratch[:0]
			for _, i := range idxs {
				a.subScratch = append(a.subScratch, lits[i])
			}
			if a.conflictSetLits(a.subScratch) {
				// Materialize the winning candidate only on a hit; the dense
				// path tests candidates straight from the scratch slice.
				best = csp.MustNogood(a.subScratch...)
				found = true
				return false // first hit at this size wins; move down a size
			}
			return true
		})
		if !found {
			break
		}
	}
	return best
}

// greedyConflictSet drops literals one at a time while the remainder stays a
// conflict set.
func (a *Agent) greedyConflictSet(resolvent csp.Nogood) csp.Nogood {
	current := resolvent
	for i := 0; i < current.Len(); {
		candidate := current.WithoutAt(i)
		if a.conflictSetNogood(candidate) {
			current = candidate
			// Re-test position i, which now holds the next literal.
		} else {
			i++
		}
	}
	return current
}

// conflictSetLits tests a candidate given as a literal slice (already
// variable-deduplicated, any order).
func (a *Agent) conflictSetLits(lits []csp.Lit) bool {
	if a.learning.Reference {
		return a.isConflictSetRef(csp.MustNogood(lits...))
	}
	return a.isConflictSetDense(lits)
}

// conflictSetNogood tests a candidate given as a Nogood.
func (a *Agent) conflictSetNogood(ng csp.Nogood) bool {
	if a.learning.Reference {
		return a.isConflictSetRef(ng)
	}
	a.subScratch = a.subScratch[:0]
	for i := 0; i < ng.Len(); i++ {
		a.subScratch = append(a.subScratch, ng.At(i))
	}
	return a.isConflictSetDense(a.subScratch)
}

// isConflictSetDense reports whether the partial assignment expressed by
// lits prohibits every domain value: for each value, some higher nogood is
// violated under lits ∧ (own variable = value). Each evaluation charges one
// check.
//
// By default the test scans the agent's whole store of higher nogoods —
// the straightforward implementation of the published method, whose cost is
// exactly what makes Mcs expensive in Tables 1–3 ("the cost of identifying
// such a set is usually very high"). Since the candidate is a subset of the
// agent_view, only nogoods already violated at the deadend can ever fire;
// Learning.MCSRestrictScan enables that derived optimization as an ablation
// (see BenchmarkAblationMCSScan).
//
// The candidate lives in the reused mcsView scratch (reset is one memclr),
// so a test allocates nothing — unlike the reference path's fresh map
// assignment per candidate (refpath.go).
func (a *Agent) isConflictSetDense(lits []csp.Lit) bool {
	mv := a.mcsView
	mv.Reset()
	for _, l := range lits {
		mv.Assign(l.Var, l.Val)
	}
	if !a.learning.MCSRestrictScan {
		a.classify()
	}
	for i, d := range a.domain {
		mv.Assign(a.id, d)
		hit := false
		if a.learning.MCSRestrictScan {
			for _, ng := range a.violatedHigher[i] {
				if nogood.CheckDense(ng, mv, &a.counter) {
					hit = true
					break
				}
			}
		} else {
			for k, ng := range a.store.All() {
				if a.below[k] != 0 {
					continue
				}
				if nogood.CheckDense(ng, mv, &a.counter) {
					hit = true
					break
				}
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// forEachSubset enumerates all size-k subsets of {0..n-1} in lexicographic
// order, invoking fn with the index slice (reused between calls). fn returns
// false to stop the enumeration.
func forEachSubset(n, k int, fn func(idxs []int) bool) {
	if k > n || k < 0 {
		return
	}
	idxs := make([]int, k)
	for i := range idxs {
		idxs[i] = i
	}
	for {
		if !fn(idxs) {
			return
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idxs[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idxs[i]++
		for j := i + 1; j < k; j++ {
			idxs[j] = idxs[j-1] + 1
		}
	}
}
