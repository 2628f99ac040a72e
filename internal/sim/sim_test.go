package sim

import (
	"reflect"
	"testing"

	"github.com/discsp/discsp/internal/csp"
)

// testMsg is a minimal message for simulator tests.
type testMsg struct {
	from, to AgentID
	payload  csp.Value
}

func (m testMsg) From() AgentID { return m.from }
func (m testMsg) To() AgentID   { return m.to }

// scriptAgent adopts any payload it receives as its value and relays
// payloads per a script: on cycle c it sends script[c] (if present). It
// charges `charge` checks per Step call.
type scriptAgent struct {
	id        AgentID
	value     csp.Value
	charge    int64
	checks    int64
	sendInit  []Message
	onStep    func(cycle int, in []Message) []Message
	stepCount int
	received  [][]Message
	insoluble bool
}

func (a *scriptAgent) ID() AgentID { return a.id }
func (a *scriptAgent) Init() []Message {
	return a.sendInit
}
func (a *scriptAgent) Step(in []Message) []Message {
	a.stepCount++
	a.checks += a.charge
	cp := make([]Message, len(in))
	copy(cp, in)
	a.received = append(a.received, cp)
	for _, m := range in {
		if tm, ok := m.(testMsg); ok {
			a.value = tm.payload
		}
	}
	if a.onStep != nil {
		return a.onStep(a.stepCount, in)
	}
	return nil
}
func (a *scriptAgent) CurrentValue() csp.Value { return a.value }
func (a *scriptAgent) Checks() int64           { return a.checks }
func (a *scriptAgent) Insoluble() bool         { return a.insoluble }

// pairProblem: two Boolean variables that must be equal.
func pairProblem(t *testing.T) *csp.Problem {
	t.Helper()
	p := csp.NewProblemUniform(2, 2)
	if err := p.AddNogood(csp.MustNogood(csp.Lit{Var: 0, Val: 0}, csp.Lit{Var: 1, Val: 1})); err != nil {
		t.Fatal(err)
	}
	if err := p.AddNogood(csp.MustNogood(csp.Lit{Var: 0, Val: 1}, csp.Lit{Var: 1, Val: 0})); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunAgentValidation(t *testing.T) {
	p := pairProblem(t)
	if _, err := Run(p, []Agent{&scriptAgent{id: 0}}, Options{}); err == nil {
		t.Error("Run accepted wrong agent count")
	}
	if _, err := Run(p, []Agent{&scriptAgent{id: 0}, &scriptAgent{id: 7}}, Options{}); err == nil {
		t.Error("Run accepted misnumbered agent")
	}
}

func TestRunImmediateSolution(t *testing.T) {
	p := pairProblem(t)
	agents := []Agent{
		&scriptAgent{id: 0, value: 1},
		&scriptAgent{id: 1, value: 1},
	}
	res, err := Run(p, agents, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Solved || res.Cycles != 0 {
		t.Errorf("Solved=%v Cycles=%d, want solved at startup", res.Solved, res.Cycles)
	}
}

func TestRunConvergence(t *testing.T) {
	p := pairProblem(t)
	// Agent 0 tells agent 1 its value at init; agent 1 adopts it on cycle 1.
	agents := []Agent{
		&scriptAgent{id: 0, value: 1, sendInit: []Message{testMsg{from: 0, to: 1, payload: 1}}},
		&scriptAgent{id: 1, value: 0},
	}
	res, err := Run(p, agents, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Solved || res.Cycles != 1 {
		t.Errorf("Solved=%v Cycles=%d, want solved at cycle 1", res.Solved, res.Cycles)
	}
	if res.Messages != 1 {
		t.Errorf("Messages = %d, want 1", res.Messages)
	}
	if v, _ := res.Assignment.Lookup(1); v != 1 {
		t.Errorf("final assignment x1 = %d, want 1", v)
	}
}

func TestRunCutoff(t *testing.T) {
	p := pairProblem(t)
	// Two agents ping-pong forever without ever agreeing: each Step
	// forwards a message and flips nothing.
	mk := func(id, peer AgentID, v csp.Value) *scriptAgent {
		a := &scriptAgent{id: id, value: v}
		a.sendInit = []Message{testMsg{from: id, to: peer, payload: v}}
		a.onStep = func(int, []Message) []Message {
			a.value = v // refuse to adopt
			return []Message{testMsg{from: id, to: peer, payload: v}}
		}
		return a
	}
	agents := []Agent{mk(0, 1, 0), mk(1, 0, 1)}
	res, err := Run(p, agents, Options{MaxCycles: 50})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Solved {
		t.Errorf("Solved = true, want cutoff")
	}
	if res.Cycles != 50 {
		t.Errorf("Cycles = %d, want 50 (cutoff)", res.Cycles)
	}
}

func TestRunQuiescenceStops(t *testing.T) {
	p := pairProblem(t)
	// Conflicting values, nobody ever sends anything: the run must stop at
	// the first empty-inbox cycle, not spin to the cutoff.
	agents := []Agent{
		&scriptAgent{id: 0, value: 0},
		&scriptAgent{id: 1, value: 1},
	}
	res, err := Run(p, agents, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Solved {
		t.Errorf("Solved = true for violated quiescent state")
	}
	if res.Cycles > 1 {
		t.Errorf("Cycles = %d, want quiescence stop at 1", res.Cycles)
	}
}

func TestRunInsolubleStops(t *testing.T) {
	p := pairProblem(t)
	a0 := &scriptAgent{id: 0, value: 0, sendInit: []Message{testMsg{from: 0, to: 1, payload: 0}}}
	a1 := &scriptAgent{id: 1, value: 1}
	// Agent 1 claims insolubility on its first step but keeps traffic
	// flowing so only the insolubility check can stop the run.
	a1.onStep = func(int, []Message) []Message {
		a1.insoluble = true
		a1.value = 1
		return []Message{testMsg{from: 1, to: 0, payload: 1}}
	}
	a0.onStep = func(int, []Message) []Message {
		a0.value = 0
		return []Message{testMsg{from: 0, to: 1, payload: 0}}
	}
	res, err := Run(p, []Agent{a0, a1}, Options{MaxCycles: 100})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Insoluble {
		t.Errorf("Insoluble = false")
	}
	if res.Cycles != 1 {
		t.Errorf("Cycles = %d, want 1", res.Cycles)
	}
}

func TestMaxCCKIsPerCycleMaximum(t *testing.T) {
	p := pairProblem(t)
	// Keep both agents active for exactly 3 cycles; charges 10 and 4 per
	// step. maxcck should add max(10,4)=10 per active cycle, not 14.
	var cycles = 3
	mk := func(id, peer AgentID, charge int64) *scriptAgent {
		a := &scriptAgent{id: id, charge: charge}
		a.sendInit = []Message{testMsg{from: id, to: peer, payload: 0}}
		a.onStep = func(step int, _ []Message) []Message {
			a.value = 1 // never solves: pairProblem needs equality... both become 1
			if step < cycles {
				return []Message{testMsg{from: id, to: peer, payload: 0}}
			}
			return nil
		}
		return a
	}
	// Values: both agents set value 1 → that's actually a solution for the
	// equality problem, stopping at cycle 1. Use conflicting fixed values.
	a0 := mk(0, 1, 10)
	a1 := mk(1, 0, 4)
	a0.value = 0
	a1.value = 1
	a0.onStep = func(step int, _ []Message) []Message {
		a0.value = 0
		if step < cycles {
			return []Message{testMsg{from: 0, to: 1, payload: 0}}
		}
		return nil
	}
	a1.onStep = func(step int, _ []Message) []Message {
		a1.value = 1
		if step < cycles {
			return []Message{testMsg{from: 1, to: 0, payload: 0}}
		}
		return nil
	}
	res, err := Run(p, []Agent{a0, a1}, Options{MaxCycles: 10})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Solved {
		t.Fatalf("unexpectedly solved")
	}
	// 3 active cycles × max(10, 4); startup charges nothing (Init runs no
	// Step).
	if res.MaxCCK != 30 {
		t.Errorf("MaxCCK = %d, want 30", res.MaxCCK)
	}
	if res.TotalChecks != 3*10+3*4 {
		t.Errorf("TotalChecks = %d, want 42", res.TotalChecks)
	}
}

func TestTraceCallback(t *testing.T) {
	p := pairProblem(t)
	agents := []Agent{
		&scriptAgent{id: 0, value: 1, sendInit: []Message{testMsg{from: 0, to: 1, payload: 1}}},
		&scriptAgent{id: 1, value: 0},
	}
	var events []CycleEvent
	_, err := Run(p, agents, Options{Trace: func(ev CycleEvent) { events = append(events, ev) }})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(events) != 1 {
		t.Fatalf("got %d trace events, want 1", len(events))
	}
	if events[0].Cycle != 1 || events[0].MessagesIn != 1 || !events[0].SolutionFound {
		t.Errorf("event = %+v", events[0])
	}
}

func TestSortBatchOrdersBySender(t *testing.T) {
	batch := []Message{
		testMsg{from: 2, to: 0, payload: 1},
		testMsg{from: 0, to: 0, payload: 2},
		testMsg{from: 2, to: 0, payload: 3},
		testMsg{from: 1, to: 0, payload: 4},
	}
	sorted := sortBatch(batch)
	wantFrom := []AgentID{0, 1, 2, 2}
	wantPayload := []csp.Value{2, 4, 1, 3} // per-sender order preserved
	for i, m := range sorted {
		tm := m.(testMsg)
		if tm.from != wantFrom[i] || tm.payload != wantPayload[i] {
			t.Fatalf("sorted[%d] = %+v", i, tm)
		}
	}
}

func TestMessagesByType(t *testing.T) {
	p := pairProblem(t)
	agents := []Agent{
		&scriptAgent{id: 0, value: 1, sendInit: []Message{testMsg{from: 0, to: 1, payload: 1}}},
		&scriptAgent{id: 1, value: 0},
	}
	res, err := Run(p, agents, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.MessagesByType["sim.testMsg"]; got != 1 {
		t.Errorf("MessagesByType = %v, want sim.testMsg:1", res.MessagesByType)
	}
}

// otherMsg is a second message type for the per-type delivery counts; it is
// sent both by value and by pointer, which TypeName names alike.
type otherMsg struct{ from, to AgentID }

func (m otherMsg) From() AgentID { return m.from }
func (m otherMsg) To() AgentID   { return m.to }

func neverSolved() bool { return false }

func TestMessagesByTypeMixedScript(t *testing.T) {
	// Every agent steps every cycle, so step == cycle.
	//   Init:    0 sends testMsg, otherMsg, testMsg to 1.
	//   Cycle 1: 1 receives those 3 and answers testMsg and *otherMsg;
	//            0 receives nothing and sends otherMsg to 1.
	//   Cycle 2: 0 receives 2, 1 receives 1; nobody sends, so the run
	//            stops at quiescence.
	// Hand count: testMsg 2+1, otherMsg 1+2, 6 deliveries in 2 cycles.
	a0 := &scriptAgent{id: 0, sendInit: []Message{
		testMsg{from: 0, to: 1}, otherMsg{from: 0, to: 1}, testMsg{from: 0, to: 1},
	}}
	a0.onStep = func(step int, _ []Message) []Message {
		if step == 1 {
			return []Message{otherMsg{from: 0, to: 1}}
		}
		return nil
	}
	a1 := &scriptAgent{id: 1}
	a1.onStep = func(step int, _ []Message) []Message {
		if step == 1 {
			return []Message{testMsg{from: 1, to: 0}, &otherMsg{from: 1, to: 0}}
		}
		return nil
	}
	res, err := RunAgents([]Agent{a0, a1}, Options{MaxCycles: 10}, neverSolved)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"sim.testMsg": 3, "sim.otherMsg": 3}
	if !reflect.DeepEqual(res.MessagesByType, want) {
		t.Errorf("MessagesByType = %v, want %v", res.MessagesByType, want)
	}
	if res.Messages != 6 {
		t.Errorf("Messages = %d, want 6", res.Messages)
	}
	if res.Cycles != 2 {
		t.Errorf("Cycles = %d, want quiescence after cycle 2", res.Cycles)
	}
	for _, c := range []struct {
		a     *scriptAgent
		sizes []int
	}{{a0, []int{0, 2}}, {a1, []int{3, 1}}} {
		if len(c.a.received) != len(c.sizes) {
			t.Fatalf("agent %d stepped %d times, want %d", c.a.id, len(c.a.received), len(c.sizes))
		}
		for i, n := range c.sizes {
			if len(c.a.received[i]) != n {
				t.Errorf("agent %d cycle %d batch = %v, want %d messages", c.a.id, i+1, c.a.received[i], n)
			}
		}
	}
}

func TestRunSortsOutOfOrderDelivery(t *testing.T) {
	// Agent 0 relays on behalf of sender 3 before agent 1 sends its own
	// message, so agent 2's batch arrives out of sender order and must be
	// stably sorted: sender 1 first, then sender 3's two messages in their
	// sending order.
	a0 := &scriptAgent{id: 0, sendInit: []Message{
		testMsg{from: 3, to: 2, payload: 1}, testMsg{from: 3, to: 2, payload: 2},
	}}
	a1 := &scriptAgent{id: 1, sendInit: []Message{testMsg{from: 1, to: 2, payload: 3}}}
	a2 := &scriptAgent{id: 2}
	if _, err := RunAgents([]Agent{a0, a1, a2}, Options{MaxCycles: 5}, neverSolved); err != nil {
		t.Fatal(err)
	}
	got := a2.received[0]
	want := []Message{
		testMsg{from: 1, to: 2, payload: 3},
		testMsg{from: 3, to: 2, payload: 1},
		testMsg{from: 3, to: 2, payload: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delivered batch = %v, want %v", got, want)
	}
}

func TestRunQuiescenceWithReusedBuffers(t *testing.T) {
	// A ping-pong that carries its hop count: each agent answers the
	// message it got until the count reaches 5. The inbox buffers are
	// swapped and reused every cycle, so every batch must hold exactly the
	// one message sent the cycle before — no leftovers — and the run must
	// stop at the first cycle that routes nothing.
	const hops = 5
	mk := func(id, peer AgentID) *scriptAgent {
		a := &scriptAgent{id: id}
		a.onStep = func(_ int, in []Message) []Message {
			if len(in) == 0 {
				return nil
			}
			if n := in[0].(testMsg).payload; n < hops {
				return []Message{testMsg{from: id, to: peer, payload: n + 1}}
			}
			return nil
		}
		return a
	}
	a0, a1 := mk(0, 1), mk(1, 0)
	a0.sendInit = []Message{testMsg{from: 0, to: 1, payload: 1}}
	res, err := RunAgents([]Agent{a0, a1}, Options{MaxCycles: 100}, neverSolved)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != hops || res.Messages != hops {
		t.Errorf("Cycles = %d, Messages = %d, want both %d (stop at quiescence)", res.Cycles, res.Messages, hops)
	}
	for cycle := 1; cycle <= hops; cycle++ {
		recv := a1
		if cycle%2 == 0 {
			recv = a0
		}
		batch := recv.received[cycle-1]
		if len(batch) != 1 || batch[0].(testMsg).payload != csp.Value(cycle) {
			t.Errorf("cycle %d: agent %d got %v, want one message with payload %d", cycle, recv.id, batch, cycle)
		}
	}
}
