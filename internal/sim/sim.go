// Package sim implements the synchronous distributed-system simulator the
// paper runs its experiments on (Section 4): all agents repeatedly execute
// cycles in lockstep, where one cycle consists of reading the messages that
// arrived since the previous cycle, doing local computation, and sending
// messages that will be delivered at the start of the next cycle.
//
// The simulator measures the paper's two costs:
//
//   - cycle: cycles consumed until the global assignment first becomes a
//     solution (communication cost);
//   - maxcck: the sum over cycles of the maximum number of nogood checks any
//     single agent performed in that cycle (computation cost under ideal
//     parallelism).
//
// Solution detection is done out-of-band by the simulator (the distributed
// algorithms themselves do not detect global termination); it is not charged
// to any agent.
//
// The cycle loop's inboxes are double-buffered: two per-agent message
// slices, one being delivered while the other collects the messages sent
// this cycle, swapped and truncated each cycle so their storage is reused
// for the whole run. That is why a Step batch is only valid during the
// call. Per-type delivery counts are kept per reflect.Type and named once,
// at the end of the run.
package sim

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
)

// AgentID identifies an agent. In the one-variable-per-agent setting agent i
// owns variable i, so AgentID values coincide with csp.Var values.
type AgentID int

// Message is one unit of communication between agents. Concrete message
// types are defined by each algorithm package (ok?, nogood, request for AWC;
// ok?, improve for DB).
type Message interface {
	// From is the sending agent.
	From() AgentID
	// To is the receiving agent.
	To() AgentID
}

// Agent is a participant in a synchronous run. Implementations must be
// deterministic: the same message batches in the same order must produce the
// same outputs, so that a run is reproducible from its seed.
type Agent interface {
	// ID returns the agent's identifier.
	ID() AgentID
	// Init performs the agent's startup step (initial value selection) and
	// returns its first outgoing messages. Called once, before cycle 1.
	Init() []Message
	// Step processes the batch of messages delivered this cycle and returns
	// outgoing messages. The batch is sorted by (sender, arrival order) and
	// may be empty for agents that received nothing. The batch is only
	// valid during the call: the simulator reuses its storage for later
	// cycles, so an agent that keeps messages past Step must copy them.
	Step(in []Message) []Message
	// CurrentValue returns the agent's current variable value, for the
	// simulator's out-of-band solution check.
	CurrentValue() csp.Value
	// Checks returns the cumulative number of nogood checks this agent has
	// performed. The simulator differences this around each cycle.
	Checks() int64
}

// InsolubleReporter is implemented by agents of complete algorithms that can
// derive global insolubility (the empty nogood). The simulator polls it
// after every cycle and stops the run when any agent reports true.
type InsolubleReporter interface {
	Insoluble() bool
}

// Reannouncer is implemented by agents that can re-send their current
// assignment to one peer on demand. The networked runtime (internal/netrun)
// uses it when a peer's process relaunches with no memory: every frame the
// dead incarnation acknowledged is unrecoverable — both sides' buffers are
// gone — so the only way the fresh agent's empty view converges is for live
// neighbors to announce their values again. Agents that do not implement it
// still work under warm restarts (checkpoint restore and reconnection), but
// a cold peer relaunch can stall their runs.
type Reannouncer interface {
	// Reannounce returns the messages that restate this agent's current
	// assignment to peer, or nil when peer is not an announcement target.
	Reannounce(peer AgentID) []Message
}

// Checkpointer is implemented by agents whose durable state can be saved
// and replayed for crash-restart recovery (internal/faults, and the crash
// handling in internal/async and internal/netrun). Checkpoint returns a
// self-contained snapshot — current value, nogood store contents, check
// counter, agent view, and any protocol-phase state — that shares no
// mutable memory with the agent. Restore loads a snapshot produced by an
// agent of the same algorithm and problem onto the receiver (typically a
// freshly constructed instance standing in for a rebooted node), after
// which the agent must behave exactly as the checkpointed one would.
type Checkpointer interface {
	Checkpoint() any
	Restore(snapshot any) error
}

// DefaultMaxCycles is the paper's cutoff: trials are stopped after 10000
// cycles and their at-cutoff measurements are used (Section 4).
const DefaultMaxCycles = 10000

// Options configures a run.
type Options struct {
	// MaxCycles is the cutoff; 0 means DefaultMaxCycles.
	MaxCycles int
	// Trace, when non-nil, receives one event per cycle after delivery and
	// computation. Intended for debugging and the dcspsolve -v flag.
	Trace func(ev CycleEvent)
	// Causal, when non-nil, records one span per agent activation and
	// stamps every traced outgoing message with its trace ID (see
	// internal/causal). Nil disables tracing with zero overhead: the loop
	// holds nil handles and every tracing call returns immediately.
	Causal *causal.Tracer
}

// CycleEvent describes one completed cycle for tracing.
type CycleEvent struct {
	Cycle         int
	MessagesIn    int
	MessagesOut   int
	MaxChecks     int64
	SolutionFound bool
}

// Result reports a completed run.
type Result struct {
	// Solved reports whether a solution was reached within the cutoff.
	Solved bool
	// Cycles is the number of cycles consumed; at cutoff it equals the
	// cutoff value, mirroring the paper's "use the data at that time".
	Cycles int
	// MaxCCK is the maxcck metric: Σ_cycle max_agent checks(agent, cycle).
	MaxCCK int64
	// TotalChecks is Σ_agent checks(agent) over the whole run; not a paper
	// metric but useful for ablation analysis.
	TotalChecks int64
	// Messages is the total number of messages delivered.
	Messages int
	// MessagesByType breaks deliveries down by concrete message type name
	// (e.g. "core.Ok", "core.NogoodMsg") — the communication-cost profile.
	MessagesByType map[string]int
	// Insoluble reports that some agent derived the empty nogood, proving
	// no solution exists.
	Insoluble bool
	// Assignment is the final global assignment (the solution when Solved).
	Assignment csp.SliceAssignment
}

// Run executes agents against problem until a solution appears or the cutoff
// is hit. Agents must be in one-to-one correspondence with the problem's
// variables (agent i owns variable i); Run returns an error otherwise. For
// agents owning several variables (internal/multi), use RunAgents with a
// custom solved predicate.
func Run(problem *csp.Problem, agents []Agent, opts Options) (Result, error) {
	if len(agents) != problem.NumVars() {
		return Result{}, fmt.Errorf("sim: %d agents for %d variables", len(agents), problem.NumVars())
	}
	assignment := csp.NewSliceAssignment(problem.NumVars())
	res, err := RunAgents(agents, opts, func() bool {
		snapshot(agents, assignment)
		return problem.IsSolution(assignment)
	})
	res.Assignment = assignment
	return res, err
}

// RunAgents is the algorithm-agnostic cycle loop: solved is the out-of-band
// termination predicate, polled after startup and after every cycle. The
// Result's Assignment is left nil; callers reconstruct global state from
// their agents.
func RunAgents(agents []Agent, opts Options, solved func() bool) (Result, error) {
	for i, a := range agents {
		if int(a.ID()) != i {
			return Result{}, fmt.Errorf("sim: agent at index %d has id %d", i, a.ID())
		}
	}
	maxCycles := opts.MaxCycles
	if maxCycles <= 0 {
		maxCycles = DefaultMaxCycles
	}

	var res Result
	prevChecks := make([]int64, len(agents))

	// Startup: every agent selects an initial value and emits its first
	// messages. Startup is not counted as a cycle (the paper counts cycles
	// of the message-driven loop), but its checks do count toward maxcck as
	// a cycle-0 contribution so no computation escapes accounting.
	// Per-agent tracing handles; all nil when tracing is off, so the loop
	// body's tracing calls are no-ops.
	var tracers []*causal.AgentTracer
	if opts.Causal != nil {
		tracers = make([]*causal.AgentTracer, len(agents))
		for i, a := range agents {
			tracers[i] = opts.Causal.Agent(int(a.ID()))
		}
	}
	tracerOf := func(i int) *causal.AgentTracer {
		if tracers == nil {
			return nil
		}
		return tracers[i]
	}

	// inbox[i] is agent i's batch for the current cycle, next[i] collects
	// what is sent to it during the cycle; the two swap after every cycle.
	inbox := make([][]Message, len(agents))
	next := make([][]Message, len(agents))
	var byType typeCounts
	var startupMax int64
	for i, a := range agents {
		at := tracerOf(i)
		at.Begin(causal.SpanInit, 0)
		out := a.Init()
		stampBatch(at, out)
		at.End()
		route(inbox, out)
		if c := a.Checks(); c > startupMax {
			startupMax = c
		}
	}
	for i, a := range agents {
		prevChecks[i] = a.Checks()
	}
	res.MaxCCK += startupMax

	if solved() {
		res.Solved = true
		finalizeTotals(&res, agents, byType)
		return res, nil
	}
	if anyInsoluble(agents) {
		res.Insoluble = true
		finalizeTotals(&res, agents, byType)
		return res, nil
	}

	for cycle := 1; cycle <= maxCycles; cycle++ {
		res.Cycles = cycle
		messagesIn, messagesOut := 0, 0
		var maxDelta int64
		for i, a := range agents {
			in := sortBatch(inbox[i])
			messagesIn += len(in)
			for _, m := range in {
				byType.add(reflect.TypeOf(m))
			}
			at := tracerOf(i)
			at.Begin(causal.SpanStep, cycle)
			causeBatch(at, in)
			out := a.Step(in)
			stampBatch(at, out)
			at.End()
			messagesOut += len(out)
			route(next, out)
			delta := a.Checks() - prevChecks[i]
			prevChecks[i] = a.Checks()
			if delta > maxDelta {
				maxDelta = delta
			}
		}
		res.MaxCCK += maxDelta
		res.Messages += messagesIn
		// Every inbox batch has been delivered: empty it (dropping its
		// message references) and make it the next cycle's collector.
		for i := range inbox {
			clear(inbox[i])
			inbox[i] = inbox[i][:0]
		}
		inbox, next = next, inbox

		done := solved()
		if opts.Trace != nil {
			opts.Trace(CycleEvent{
				Cycle:         cycle,
				MessagesIn:    messagesIn,
				MessagesOut:   messagesOut,
				MaxChecks:     maxDelta,
				SolutionFound: done,
			})
		}
		if done {
			res.Solved = true
			break
		}
		if anyInsoluble(agents) {
			res.Insoluble = true
			break
		}
		// Quiescence without a solution: no messages in flight means no
		// agent will ever act again. For a complete algorithm this only
		// happens when insolubility was derived; stop rather than spin to
		// the cutoff.
		if messagesOut == 0 {
			break
		}
	}
	finalizeTotals(&res, agents, byType)
	return res, nil
}

// route appends each message to its recipient's queue, validating the
// recipient. Panics on an out-of-range recipient: that is a bug in an
// algorithm implementation, not a runtime condition.
func route(inbox [][]Message, out []Message) {
	for _, m := range out {
		to := m.To()
		if int(to) < 0 || int(to) >= len(inbox) {
			panic(fmt.Sprintf("sim: message %T addressed to unknown agent %d", m, to))
		}
		inbox[to] = append(inbox[to], m)
	}
}

// sortBatch orders a delivery batch by sender, preserving per-sender order.
// Agents are stepped in ID order so batches arrive already sender-sorted
// and the check is all it costs; the stable sort is a determinism
// safeguard should that change.
func sortBatch(batch []Message) []Message {
	bySender := func(a, b Message) int { return cmp.Compare(a.From(), b.From()) }
	if !slices.IsSortedFunc(batch, bySender) {
		slices.SortStableFunc(batch, bySender)
	}
	return batch
}

// typeCounts counts deliveries per concrete message type. A run carries a
// handful of types, so a linear scan beats hashing.
type typeCounts []typeCount

type typeCount struct {
	t reflect.Type
	n int
}

func (c *typeCounts) add(t reflect.Type) {
	for i := range *c {
		if (*c)[i].t == t {
			(*c)[i].n++
			return
		}
	}
	*c = append(*c, typeCount{t: t, n: 1})
}

// causeBatch records a delivery batch's trace IDs as causes of the open
// span. No-op on a nil handle.
func causeBatch(at *causal.AgentTracer, in []Message) {
	if at == nil {
		return
	}
	for _, m := range in {
		at.Cause(m)
	}
}

// stampBatch assigns trace IDs to an outgoing batch in place, recording
// each emission on the open span. No-op on a nil handle; messages that do
// not implement causal.Traced pass through unchanged.
func stampBatch(at *causal.AgentTracer, out []Message) {
	if at == nil {
		return
	}
	for i, m := range out {
		out[i] = at.Stamp(m, int(m.To()), TypeName(m)).(Message)
	}
}

// TypeName renders a message's concrete type as "pkg.Type" — the key used
// for per-kind delivery counts and causal emission records.
func TypeName(m Message) string { return typeName(reflect.TypeOf(m)) }

func typeName(t reflect.Type) string {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if pkg := t.PkgPath(); pkg != "" {
		if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
			pkg = pkg[i+1:]
		}
		return pkg + "." + t.Name()
	}
	return t.String()
}

func anyInsoluble(agents []Agent) bool {
	for _, a := range agents {
		if r, ok := a.(InsolubleReporter); ok && r.Insoluble() {
			return true
		}
	}
	return false
}

func snapshot(agents []Agent, into csp.SliceAssignment) {
	for i, a := range agents {
		into[i] = a.CurrentValue()
	}
}

func finalizeTotals(res *Result, agents []Agent, byType typeCounts) {
	var total int64
	for _, a := range agents {
		total += a.Checks()
	}
	res.TotalChecks = total
	if len(byType) > 0 {
		res.MessagesByType = make(map[string]int, len(byType))
		for _, c := range byType {
			res.MessagesByType[typeName(c.t)] += c.n
		}
	}
}
