package core

import (
	"math/rand"
	"testing"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
)

// assertClassification brings the agent's classification cache up to date
// the way every consumer does (classify) and compares each store entry's
// cached class with isHigher recomputed from scratch.
func assertClassification(t *testing.T, a *Agent, where string) {
	t.Helper()
	a.classify()
	for i, ng := range a.store.All() {
		if got, want := a.below[i] == 0, a.isHigher(ng); got != want {
			t.Fatalf("%s: entry %d %v cached higher=%v, from scratch %v (below=%d, own priority %d)",
				where, i, ng, got, want, a.below[i], a.priority)
		}
	}
}

// randomNogood returns a nogood over own and 1..3 distinct other variables
// with random values.
func randomNogood(rng *rand.Rand, own csp.Var, numVars, domSize int) csp.Nogood {
	lits := []csp.Lit{{Var: own, Val: csp.Value(rng.Intn(domSize))}}
	for _, v := range rng.Perm(numVars)[:1+rng.Intn(3)] {
		if csp.Var(v) != own {
			lits = append(lits, csp.Lit{Var: csp.Var(v), Val: csp.Value(rng.Intn(domSize))})
		}
	}
	return csp.MustNogood(lits...)
}

// TestClassificationMatchesFromScratch drives seeded random interleavings
// of every agent state change that can move a stored nogood between higher
// and lower: batches mixing ok? messages whose priorities rise, fall and tie
// the owner's with received nogoods (so several variables change rank
// before the next classify, and stores grow, prune and evict in between),
// warm-start seeding, the agent's own deadend priority raises, and
// checkpoint restores into the same or a fresh agent. After every step each
// cached classification must equal isHigher computed from scratch.
func TestClassificationMatchesFromScratch(t *testing.T) {
	const numVars, domSize = 8, 3
	configs := []Learning{
		{Kind: LearnResolvent},
		{Kind: LearnResolvent, Retention: nogood.Retention{Kind: nogood.RetainLRU, Cap: 4}},
		{Kind: LearnResolvent, SubsumptionPruning: true,
			Retention: nogood.Retention{Kind: nogood.RetainActivity, Cap: 5}},
		{Kind: LearnMCS, SubsumptionPruning: true,
			Retention: nogood.Retention{Kind: nogood.RetainLRU, Cap: 6}},
	}
	for ci, l := range configs {
		var raises, evictions, pruned, restores int64
		for seed := int64(0); seed < 25; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(ci)))
			own := csp.Var(rng.Intn(numVars))
			p := csp.NewProblemUniform(numVars, domSize)
			for v := csp.Var(0); v < numVars; v++ {
				if v != own && rng.Intn(2) == 0 {
					if err := p.AddNotEqual(own, v); err != nil {
						t.Fatal(err)
					}
				}
			}
			a := NewAgent(own, p, csp.Value(rng.Intn(domSize)), l)
			assertClassification(t, a, "construction")
			var saved any
			for step := 0; step < 150; step++ {
				prioBefore, evBefore, prunedBefore := a.Priority(), a.StoreEvictions(), a.Stats().NogoodsPruned
				var op string
				switch k := rng.Intn(12); {
				case k < 7:
					op = "step"
					batch := make([]sim.Message, 1+rng.Intn(5))
					for i := range batch {
						from := csp.Var(rng.Intn(numVars))
						for from == own {
							from = csp.Var(rng.Intn(numVars))
						}
						if rng.Intn(3) == 0 {
							batch[i] = NogoodMsg{Sender: sim.AgentID(from), Receiver: sim.AgentID(own),
								Nogood: randomNogood(rng, own, numVars, domSize)}
							continue
						}
						// Rise, fall or tie relative to the owner.
						pr := a.Priority() + rng.Intn(5) - 2
						if pr < 0 || rng.Intn(4) == 0 {
							pr = a.Priority()
						}
						batch[i] = Ok{Sender: sim.AgentID(from), Receiver: sim.AgentID(own),
							Value: csp.Value(rng.Intn(domSize)), Priority: pr}
					}
					a.Step(batch)
				case k < 8:
					op = "seed"
					ngs := make([]csp.Nogood, 1+rng.Intn(3))
					for i := range ngs {
						ngs[i] = randomNogood(rng, own, numVars, domSize)
					}
					a.SeedNogoods(ngs)
				case k < 9:
					op = "checkpoint"
					saved = a.Checkpoint()
				case k < 10:
					op = "restore"
					if saved == nil {
						continue
					}
					if err := a.Restore(saved); err != nil {
						t.Fatal(err)
					}
					restores++
				default:
					op = "restore-fresh"
					fresh := NewAgent(own, p, 0, l)
					if err := fresh.Restore(a.Checkpoint()); err != nil {
						t.Fatal(err)
					}
					a = fresh
					restores++
				}
				if op == "step" {
					if a.Priority() > prioBefore {
						raises++
					}
					if a.StoreEvictions() > evBefore {
						evictions++
					}
					if a.Stats().NogoodsPruned > prunedBefore {
						pruned++
					}
				}
				assertClassification(t, a, l.Name()+" "+op)
			}
		}
		t.Logf("%s: raises=%d evictions=%d pruned=%d restores=%d", l.Name(), raises, evictions, pruned, restores)
		// The interleavings must actually reach the paths under test.
		if raises == 0 || restores == 0 {
			t.Errorf("%s: raises=%d restores=%d; every path must be exercised", l.Name(), raises, restores)
		}
		if l.Retention.Bounded() && evictions == 0 {
			t.Errorf("%s: no eviction happened under cap %d", l.Name(), l.Retention.Cap)
		}
		if l.SubsumptionPruning && pruned == 0 {
			t.Errorf("%s: no subsumption prune happened", l.Name())
		}
	}
}
