package netrun

import (
	"testing"
	"time"

	"github.com/discsp/discsp/internal/abt"
	"github.com/discsp/discsp/internal/breakout"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/sim"
)

func TestRunEmptyProblem(t *testing.T) {
	res, err := Run(csp.NewProblem(), nil, Options{})
	if err != nil || !res.Solved {
		t.Fatalf("empty problem: %+v %v", res, err)
	}
}

func TestAWCOverTCPSolvesColoring(t *testing.T) {
	inst, err := gen.Coloring(20, 54, 3, 61)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 62)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("not solved over TCP: %+v", res)
	}
	if !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("snapshot is not a solution")
	}
	if res.Messages == 0 {
		t.Errorf("no messages routed")
	}
}

func TestDBOverTCPSolvesColoring(t *testing.T) {
	inst, err := gen.Coloring(15, 40, 3, 63)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 64)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, inst.Problem, init[v])
	}, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("DB not solved over TCP: %+v", res)
	}
}

func TestABTOverTCPDetectsInsolubility(t *testing.T) {
	p := csp.NewProblemUniform(4, 3) // K4 with 3 colors
	for i := csp.Var(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if err := p.AddNotEqual(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := Run(p, func(v csp.Var) sim.Agent {
		return abt.NewAgent(v, p, 0)
	}, Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Insoluble {
		t.Fatalf("insolubility not detected over TCP: %+v", res)
	}
}

func TestTCPQuiescenceOnUnconstrainedProblem(t *testing.T) {
	// Two variables, one binary constraint, consistent start: the nodes
	// exchange their initial ok?s and everything settles.
	p := csp.NewProblemUniform(2, 2)
	if err := p.AddNotEqual(0, 1); err != nil {
		t.Fatal(err)
	}
	init := csp.SliceAssignment{0, 1}
	res, err := Run(p, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, p, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Solved {
		t.Fatalf("consistent start not recognized: %+v", res)
	}
}

// TestRunShutdownClosesLateAccepts pins the shutdown race between a relay's
// accept loop and Run's connection teardown: a connection accepted just
// after Run closed every known socket used to stay open, leaving its node
// blocked reading a welcome that never came and Run waiting on it forever.
// A nanosecond timeout ends each run while nodes are still dialing, which
// is exactly when the race fires.
func TestRunShutdownClosesLateAccepts(t *testing.T) {
	inst, err := gen.Coloring(20, 54, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 11)
	makeAgent := func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}
	for i := 0; i < 20; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			Run(inst.Problem, makeAgent, Options{Timeout: time.Nanosecond})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d did not shut down within 30s", i)
		}
	}
}
