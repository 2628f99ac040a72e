package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/discsp/discsp"
)

// benchmarkSpec is the part of BENCHMARK.json these tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortConfig is a pass of a few solves, with scratch state in t's
// temporary directory.
func shortConfig(t *testing.T, workload string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload:   workload,
		seed:       7,
		seconds:    0.01,
		trace:      trace,
		spanDir:    dir,
		stateDir:   dir,
		minSolves:  2,
		costSolves: 2,
	}
}

// TestEveryMetricPrinted runs a short pass of every workload, untraced and
// traced, and checks the result line carries exactly the metrics
// BENCHMARK.json names, each with its unit, and that every output was
// verified. tcp-d3c-30 runs too: BENCHMARK.json measures TCP at n=20,
// but the n=30 retransmission-storm size stays runnable by name.
func TestEveryMetricPrinted(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the program lacks", w.Name)
		}
	}
	for _, name := range strings.Split(workloadNames(), ", ") {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			rep, err := run(shortConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 2 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d notes=%q", name, trace, rep.Correct, rep.Attempted, rep.notes)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
				t.Errorf("%s trace=%v: result line %s: want exactly correct, attempted, failed, metrics", name, trace, line)
			}
		}
	}
}

// TestCheckRejectsCorruptedAssignment verifies the checker accepts a real
// solution and rejects the same solution with one value changed, a
// truncated one, and an insoluble verdict on a planted instance.
func TestCheckRejectsCorruptedAssignment(t *testing.T) {
	pool, err := coloringPool(30)(3)
	if err != nil {
		t.Fatal(err)
	}
	j := jobAt(pool, 3, 0)
	res, err := discsp.Solve(j.inst.p, options(config{}, j))
	if err != nil {
		t.Fatal(err)
	}
	if o, why := check(j.inst.p, res.Solved, res.Insoluble, res.Assignment, nil); o != verified {
		t.Fatalf("real solution not verified: %s", why)
	}
	corrupted := append(discsp.SliceAssignment(nil), res.Assignment...)
	broken := false
	for v := range corrupted {
		for _, val := range j.inst.p.Domain(discsp.Var(v)) {
			orig := corrupted[v]
			corrupted[v] = val
			if !j.inst.p.IsSolution(corrupted) {
				broken = true
				break
			}
			corrupted[v] = orig
		}
		if broken {
			break
		}
	}
	if !broken {
		t.Fatal("no single-value change breaks the solution")
	}
	if o, _ := check(j.inst.p, true, false, corrupted, nil); o != wrong {
		t.Errorf("corrupted assignment: outcome %v, want wrong", o)
	}
	if o, _ := check(j.inst.p, true, false, res.Assignment[:10], nil); o != wrong {
		t.Errorf("truncated assignment: outcome %v, want wrong", o)
	}
	if o, _ := check(j.inst.p, false, true, nil, nil); o != wrong {
		t.Errorf("insoluble verdict on a planted instance: outcome %v, want wrong", o)
	}
	if o, _ := check(j.inst.p, false, false, res.Assignment, nil); o != missing {
		t.Errorf("no verdict: outcome %v, want missing", o)
	}
}

// TestForcedTimeoutCountsAsFailure gives every solve and job a deadline no
// run can meet: each attempt must count as failed — none dropped from the
// denominator — while the run stays correct, since nothing false was
// claimed.
func TestForcedTimeoutCountsAsFailure(t *testing.T) {
	for _, name := range []string{"async-d3c-60", "tcp-d3c-20", "dcspd-sat"} {
		cfg := shortConfig(t, name, false)
		cfg.timeout = time.Nanosecond
		rep, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Attempted < 2 || rep.Failed != rep.Attempted || !rep.Correct {
			t.Errorf("%s: attempted=%d failed=%d correct=%v, want every attempt failed and the run correct",
				name, rep.Attempted, rep.Failed, rep.Correct)
		}
		if got := rep.Metrics["solves_per_s"].Value; got != 0 {
			t.Errorf("%s: solves_per_s = %v with every solve timed out", name, got)
		}
	}
}

// TestSeedDeterminesInputs pins that the seed alone determines the inputs,
// and that initial values never come from an instance's own seed stream.
func TestSeedDeterminesInputs(t *testing.T) {
	for name, w := range workloads {
		a, err := w.pool(11)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.pool(11)
		c, _ := w.pool(12)
		if encode(t, a[0].p) != encode(t, b[0].p) || encode(t, a[0].p) == encode(t, c[0].p) {
			t.Errorf("%s: pool is not a function of the seed", name)
		}
	}
	for k := 0; k < 1000; k++ {
		for i := 0; i < poolSize; i++ {
			if derive(5, streamInit, k) == derive(5, streamInstance, i) {
				t.Fatalf("init seed %d equals instance seed %d", k, i)
			}
		}
	}
}

func encode(t *testing.T, p *discsp.Problem) string {
	var b strings.Builder
	if err := discsp.WriteProblemJSON(&b, p); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTracedSyncIsInert runs the traced sync pass and checks the traced
// and untraced solves agreed bit for bit (a mismatch makes the run
// incorrect) and that the paper costs repeat exactly across runs.
func TestTracedSyncIsInert(t *testing.T) {
	cfg := shortConfig(t, "sync-d3c-60", true)
	first, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Correct || !second.Correct {
		t.Fatalf("traced run not inert: %q %q", first.notes, second.notes)
	}
	for _, m := range []string{"sim.cycles", "sim.maxcck"} {
		if first.Metrics[m].Value == 0 || first.Metrics[m] != second.Metrics[m] {
			t.Errorf("%s: %v then %v, want equal and nonzero", m, first.Metrics[m], second.Metrics[m])
		}
	}
}
