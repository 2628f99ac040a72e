package core

import (
	"fmt"
	"sort"

	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/nogood"
	"github.com/discsp/discsp/internal/sim"
)

// Snapshot is an AWC agent's durable state for crash-restart recovery: the
// fields a rebooted node must replay to rejoin a run exactly where its last
// checkpoint left it. View entries are canonically sorted by variable so
// two snapshots of the same state compare equal regardless of the agent's
// internal representation (dense or reference).
type Snapshot struct {
	Value    csp.Value
	Priority int
	// Nogoods is the full store in insertion order: the initial constraints
	// plus everything learned. Kept alongside Store for older consumers;
	// Store is authoritative when populated.
	Nogoods []csp.Nogood
	// Store is the full store state including retention metadata (pinned
	// flags, recency stamps, hit counts), so bounded-store runs resume
	// their eviction decisions exactly where the checkpoint left them.
	Store  nogood.State
	Checks int64
	// ViewVars/ViewVals/ViewPrios are the agent_view, sorted by variable.
	ViewVars  []csp.Var
	ViewVals  []csp.Value
	ViewPrios []int
	// Links are the ok? broadcast targets, sorted.
	Links []csp.Var
	// LastLearned is the duplicate-suppression guard (nil when unset).
	LastLearned *csp.Nogood
	// GeneratedKeys are the keys of every nogood this agent ever derived
	// (the Table 4 redundancy measure), sorted.
	GeneratedKeys []string
	Insoluble     bool
	Stats         Stats
}

var _ sim.Checkpointer = (*Agent)(nil)

// Checkpoint implements sim.Checkpointer.
func (a *Agent) Checkpoint() any {
	s := &Snapshot{
		Value:     a.value,
		Priority:  a.priority,
		Nogoods:   a.store.Snapshot(),
		Store:     a.store.State(),
		Checks:    a.counter.Total(),
		Insoluble: a.insoluble,
		Stats:     a.stats,
	}
	if a.lastLearned != nil {
		cp := *a.lastLearned
		s.LastLearned = &cp
	}
	s.GeneratedKeys = make([]string, 0, len(a.generatedKeys))
	for k := range a.generatedKeys {
		s.GeneratedKeys = append(s.GeneratedKeys, k)
	}
	sort.Strings(s.GeneratedKeys)

	if a.learning.Reference {
		vars := make([]csp.Var, 0, len(a.view))
		for v := range a.view {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		for _, v := range vars {
			e := a.view[v]
			s.ViewVars = append(s.ViewVars, v)
			s.ViewVals = append(s.ViewVals, e.val)
			s.ViewPrios = append(s.ViewPrios, e.prio)
		}
		s.Links = make([]csp.Var, 0, len(a.outLinks))
		for v := range a.outLinks {
			s.Links = append(s.Links, v)
		}
		sort.Slice(s.Links, func(i, j int) bool { return s.Links[i] < s.Links[j] })
		return s
	}
	for v := 0; v < a.dv.Len(); v++ {
		if csp.Var(v) == a.id || !a.dv.Known(csp.Var(v)) {
			continue
		}
		val, _ := a.dv.Lookup(csp.Var(v))
		s.ViewVars = append(s.ViewVars, csp.Var(v))
		s.ViewVals = append(s.ViewVals, val)
		s.ViewPrios = append(s.ViewPrios, a.prios[v])
	}
	s.Links = make([]csp.Var, len(a.links))
	copy(s.Links, a.links)
	return s
}

// Restore implements sim.Checkpointer. The receiver must be a freshly
// constructed (or otherwise same-problem) agent for the same variable; its
// state is replaced wholesale by the snapshot's.
func (a *Agent) Restore(snapshot any) error {
	s, ok := snapshot.(*Snapshot)
	if !ok {
		return fmt.Errorf("core: cannot restore %T into an AWC agent", snapshot)
	}
	if len(s.ViewVars) != len(s.ViewVals) || len(s.ViewVars) != len(s.ViewPrios) {
		return fmt.Errorf("core: corrupt snapshot: view slices of unequal length")
	}
	a.priority = s.Priority
	if s.Store.Nogoods != nil {
		a.store.RestoreState(s.Store)
	} else {
		a.store.Restore(s.Nogoods)
	}
	a.counter.Restore(s.Checks)
	a.insoluble = s.Insoluble
	a.stats = s.Stats
	a.lastLearned = nil
	if s.LastLearned != nil {
		cp := *s.LastLearned
		a.lastLearned = &cp
	}
	a.generatedKeys = make(map[string]struct{}, len(s.GeneratedKeys))
	for _, k := range s.GeneratedKeys {
		a.generatedKeys[k] = struct{}{}
	}

	if a.learning.Reference {
		a.view = make(map[csp.Var]viewEntry, len(s.ViewVars))
		for i, v := range s.ViewVars {
			a.view[v] = viewEntry{val: s.ViewVals[i], prio: s.ViewPrios[i]}
		}
		a.outLinks = make(map[csp.Var]struct{}, len(s.Links))
		for _, v := range s.Links {
			a.outLinks[v] = struct{}{}
		}
		a.value = s.Value
		return nil
	}
	a.dv.Reset()
	for i := range a.prios {
		a.prios[i] = 0
	}
	for i, v := range s.ViewVars {
		a.dv.Assign(v, s.ViewVals[i])
		a.prios[v] = s.ViewPrios[i]
	}
	a.links = a.links[:0]
	for i := range a.linked {
		a.linked[i] = false
	}
	for _, v := range s.Links {
		a.links = append(a.links, v)
		a.linked[v] = true
	}
	a.setValue(s.Value) // also refreshes the dense view's own slot
	a.recount = true
	return nil
}
