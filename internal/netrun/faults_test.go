package netrun

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/abt"
	"github.com/discsp/discsp/internal/breakout"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/telemetry"
)

func insolubleTriangle(t *testing.T) *csp.Problem {
	t.Helper()
	p := csp.NewProblemUniform(3, 2)
	for _, e := range [][2]csp.Var{{0, 1}, {1, 2}, {0, 2}} {
		if err := p.AddNotEqual(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestNetrunDisconnectFastFail pins the satellite regression: a node that
// dies mid-run without a scheduled restart must surface as a prompt
// diagnostic error from the hub's send path, not as a silent 30-second
// timeout. DB on an insoluble triangle keeps traffic flowing forever, so
// retransmissions to the dead node guarantee a send failure quickly.
func TestNetrunDisconnectFastFail(t *testing.T) {
	p := insolubleTriangle(t)
	init := csp.SliceAssignment{0, 0, 0}
	start := time.Now()
	res, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{
		Timeout: 30 * time.Second,
		Faults: &faults.Config{Seed: 1, Crashes: []faults.Crash{
			{Agent: 1, AfterSteps: 2, Restart: false},
		}},
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("dead node produced no error: %+v", res)
	}
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("dead node reported as timeout: %v", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("fast-fail took %v; the run idled toward the timeout", elapsed)
	}
	if !strings.Contains(err.Error(), "node") {
		t.Errorf("diagnostic %q does not identify the node", err)
	}
}

// TestNetrunTimeoutErrorState pins the satellite contract: a timed-out run
// returns a *TimeoutError carrying the hub's last snapshot.
func TestNetrunTimeoutErrorState(t *testing.T) {
	p := insolubleTriangle(t)
	init := csp.SliceAssignment{0, 0, 0}
	_, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{Timeout: 500 * time.Millisecond})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T %v, want *TimeoutError", err, err)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("TimeoutError does not wrap ErrTimeout: %v", err)
	}
	if len(te.Processed) != 3 {
		t.Fatalf("Processed = %v, want 3 entries", te.Processed)
	}
	if te.Messages == 0 {
		t.Errorf("Messages = 0; DB exchanges traffic before the deadline")
	}
	for _, want := range []string{"in flight", "routed", "processed"} {
		if !strings.Contains(te.Error(), want) {
			t.Errorf("error message %q missing %q", te.Error(), want)
		}
	}
}

func TestNetrunAWCUnderDropAndDup(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{
		Timeout: 60 * time.Second,
		Faults:  &faults.Config{Seed: 4, Drop: 0.1, Duplicate: 0.3, MaxDelay: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("not solved under drop+dup: %+v", res)
	}
	if !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("assignment is not a solution")
	}
	if res.Retransmits == 0 {
		t.Errorf("no retransmits at 10%% drop: %+v", res)
	}
	if res.DuplicatesSuppressed == 0 {
		t.Errorf("no duplicates suppressed at 30%% dup: %+v", res)
	}
}

// TestNetrunLinkRetransmitsSumToTotal pins the drop accounting: every
// dropped attempt the hub turns into delay is counted once in the run's
// Retransmits and once against its link, so on a drop-only run the link
// events' retransmits sum to the total.
func TestNetrunLinkRetransmitsSumToTotal(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	var buf bytes.Buffer
	tel := telemetry.NewRun(telemetry.NewRegistry(), &buf)
	res, err := Run(inst.Problem, awcMaker(inst.Problem, init), Options{
		Timeout:   60 * time.Second,
		Faults:    &faults.Config{Seed: 4, Drop: 0.3},
		Telemetry: tel,
	})
	if err != nil || !res.Solved {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if err := tel.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var links, sum int64
	for _, ev := range events {
		if ev.Kind == telemetry.KindLink {
			links++
			sum += ev.Retransmits
		}
	}
	if links == 0 {
		t.Fatal("no link events")
	}
	if res.Retransmits == 0 {
		t.Fatalf("no retransmits at 30%% drop: %+v", res)
	}
	if sum != res.Retransmits {
		t.Errorf("link retransmits sum to %d, Result.Retransmits = %d", sum, res.Retransmits)
	}
}

func TestNetrunCrashRestartAWC(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 73)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 74)
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{
		Timeout: 60 * time.Second,
		Faults: &faults.Config{Seed: 5, Crashes: []faults.Crash{
			{Agent: 2, AfterSteps: 0, Restart: true},
		}},
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved {
		t.Fatalf("not solved across crash-restart: %+v", res)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1: %+v", res.Restarts, res)
	}
}

// TestNetrunCrashBehindPermanentCut pins a scheduled crash-restart that a
// never-healing partition makes unreachable: every neighbor of the crash
// node sits across the cut, so no frame ever reaches it, it never takes the
// step that would crash it, and the verdict must not wait for that crash.
// The initial assignment is already a solution, so the run solves at once.
func TestNetrunCrashBehindPermanentCut(t *testing.T) {
	const n = 6
	p, init := ringProblem(t, n)
	var fcfg *faults.Config
	victim := -1
	for seed := int64(1); victim < 0 && seed < 1000; seed++ {
		fcfg = &faults.Config{Seed: seed, Partitions: []faults.Partition{{At: 0}}}
		inj := faults.New(*fcfg)
		for v := 0; v < n; v++ {
			if s := inj.Side(0, v); inj.Side(0, (v+1)%n) != s && inj.Side(0, (v+n-1)%n) != s {
				victim = v
				break
			}
		}
	}
	if victim < 0 {
		t.Fatal("no seed isolates a ring node behind the cut")
	}
	fcfg.Crashes = []faults.Crash{{Agent: victim, AfterSteps: 0, Restart: true}}
	res, err := Run(p, awcMaker(p, init), Options{Timeout: 10 * time.Second, Faults: fcfg})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !p.IsSolution(res.Assignment) {
		t.Fatalf("not solved: %+v", res)
	}
	if res.Restarts != 0 {
		t.Errorf("restarts = %d, want 0: node %d never receives a frame", res.Restarts, victim)
	}
}

func TestNetrunCrashRestartABTInsoluble(t *testing.T) {
	// K4 with 3 colors: the insolubility proof must survive a node crash.
	// The restarted node resumes from its checkpoint with its nogood store
	// intact, so no derivation restarts from scratch.
	p := csp.NewProblemUniform(4, 3)
	for i := csp.Var(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if err := p.AddNotEqual(i, j); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := Run(p, func(v csp.Var) sim.Agent {
		return abt.NewAgent(v, p, 0)
	}, Options{
		Timeout: 60 * time.Second,
		Faults: &faults.Config{Seed: 6, Crashes: []faults.Crash{
			{Agent: 1, AfterSteps: 1, Restart: true},
		}},
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Insoluble {
		t.Fatalf("insolubility not proven across restart: %+v", res)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
}
