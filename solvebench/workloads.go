package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/discsp/discsp"
)

// instance is one generated problem of a workload's pool.
type instance struct {
	family string
	p      *discsp.Problem
}

// workload is one named input set and the runtime it is solved on.
type workload struct {
	// runtime is "sync", "async", "tcp" or "dcspd".
	runtime string
	// pool generates the instances solve k cycles through (k mod len).
	pool func(seed int64) ([]instance, error)
}

// poolSize is the number of distinct instances per run. Solve times of
// one family vary several-fold between instances, so a run cycles through
// about as many instances as it makes solves rather than repeating a few.
const poolSize = 1024

var workloads = map[string]workload{
	"sync-d3c-60":  {runtime: "sync", pool: coloringPool(60)},
	"async-d3c-60": {runtime: "async", pool: coloringPool(60)},
	"tcp-d3c-20":   {runtime: "tcp", pool: coloringPool(20)},
	"tcp-d3c-30":   {runtime: "tcp", pool: coloringPool(30)},
	"dcspd-sat":    {runtime: "dcspd", pool: satPool},
}

// coloringPool generates the paper's solvable 3-coloring family d3c with
// m = 2.7n arcs.
func coloringPool(n int) func(seed int64) ([]instance, error) {
	return func(seed int64) ([]instance, error) {
		out := make([]instance, poolSize)
		for i := range out {
			inst, err := discsp.GenerateColoring(n, n*27/10, 3, derive(seed, streamInstance, i))
			if err != nil {
				return nil, fmt.Errorf("generate d3c n=%d: %w", n, err)
			}
			out[i] = instance{family: fmt.Sprintf("d3c-%d", n), p: inst.Problem}
		}
		return out, nil
	}
}

// satPool alternates the paper's two 3SAT families at n=50: single-solution
// d3s1 (m = 3.4n) and forced-satisfiable d3s (m = 4.3n). Both solve in a
// few milliseconds on the simulator, so a job's latency shows the service's
// own cost; d3s at n=100 sits at the phase transition, where single jobs
// ran from 20ms to over 600ms and the job mix, not the service, would set
// the run's figures.
func satPool(seed int64) ([]instance, error) {
	out := make([]instance, poolSize)
	for i := range out {
		s := derive(seed, streamInstance, i)
		var inst *discsp.SATInstance
		var err error
		if i%2 == 0 {
			inst, err = discsp.GenerateUniqueSAT3(50, 170, s)
			out[i].family = "d3s1-50"
		} else {
			inst, err = discsp.GenerateForcedSAT3(50, 215, s)
			out[i].family = "d3s-50"
		}
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", out[i].family, err)
		}
		out[i].p = inst.Problem
	}
	return out, nil
}

// job is solve k of a run: which instance, from which initial values.
type job struct {
	k        int
	inst     instance
	initSeed int64
}

func jobAt(pool []instance, seed int64, k int) job {
	return job{k: k, inst: pool[k%len(pool)], initSeed: derive(seed, streamInit, k)}
}

// setupRepeats is how many times a run repeats its set-up; setup_s is the
// median, so a few slow repetitions do not move it.
const setupRepeats = 9

// setup times generating the pool setupRepeats times and returns the last
// pool with the median time. Each repetition starts from a collected heap,
// so none pays for the garbage of the one before.
func setup(cfg config, w workload) ([]instance, float64, error) {
	var pool []instance
	times := make([]float64, setupRepeats)
	for i := range times {
		pool = nil
		runtime.GC()
		start := time.Now()
		p, err := w.pool(cfg.seed)
		if err != nil {
			return nil, 0, err
		}
		times[i] = time.Since(start).Seconds()
		pool = p
	}
	return pool, quantile(times, 0.5), nil
}

// options returns the library options every untraced solve uses: AWC with
// resolvent learning (the zero value) from seeded random initial values.
func options(cfg config, j job) discsp.Options {
	return discsp.Options{InitialSeed: j.initSeed, Timeout: cfg.timeout}
}

// solvePlain runs one untraced solve through the public entry point.
func solvePlain(cfg config, runtime string, j job) (discsp.Result, error) {
	switch runtime {
	case "sync":
		return discsp.Solve(j.inst.p, options(cfg, j))
	case "async":
		return discsp.SolveAsync(j.inst.p, options(cfg, j))
	case "tcp":
		return discsp.SolveTCP(j.inst.p, options(cfg, j))
	}
	return discsp.Result{}, fmt.Errorf("no plain solve for runtime %q", runtime)
}

// outcome classifies one attempted solve.
type outcome int

const (
	// verified: solved, and the assignment satisfies the generated problem.
	verified outcome = iota
	// missing: no verdict — a timeout, an error, a cycle cutoff, a shed
	// or failed job. Counts as failed; the program made no false claim.
	missing
	// wrong: a verdict the generated problem refutes — a "solution" that
	// violates a constraint, or "insoluble" on a planted instance. Counts
	// as failed and makes the run incorrect.
	wrong
)

// check verifies a verdict against the generated problem. Every instance is
// planted (generated around a hidden solution), so only "solved" is right.
func check(p *discsp.Problem, solved, insoluble bool, a discsp.SliceAssignment, err error) (outcome, string) {
	switch {
	case solved && (len(a) != p.NumVars() || !p.IsSolution(a)):
		return wrong, "claimed solution violates the problem"
	case insoluble:
		return wrong, "planted instance reported insoluble"
	case err != nil:
		return missing, err.Error()
	case !solved:
		return missing, "no verdict"
	}
	return verified, ""
}

// tally accumulates attempted solves.
type tally struct {
	attempted, failed int
	wrongs            []string
	firstMissing      string
	latencies         []time.Duration
}

func (t *tally) record(o outcome, why string, d time.Duration) {
	t.attempted++
	t.latencies = append(t.latencies, d)
	switch o {
	case missing:
		t.failed++
		if t.firstMissing == "" {
			t.firstMissing = why
		}
	case wrong:
		t.failed++
		t.wrongs = append(t.wrongs, why)
	}
}

// done reports whether a closed loop should stop before solve k.
func done(cfg config, deadline time.Time, k int) bool {
	return k >= cfg.minSolves && !time.Now().Before(deadline)
}

// runPlain is the untraced run of the sync, async and TCP workloads: one
// solve at a time, each timed from call to verified verdict.
func runPlain(cfg config, w workload) (*report, error) {
	pool, setupS, err := setup(cfg, w)
	if err != nil {
		return nil, err
	}
	var t tally
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; !done(cfg, deadline, k); k++ {
		j := jobAt(pool, cfg.seed, k)
		t0 := time.Now()
		res, err := solvePlain(cfg, w.runtime, j)
		d := time.Since(t0)
		o, why := check(j.inst.p, res.Solved, res.Insoluble, res.Assignment, err)
		t.record(o, why, d)
	}
	wall := time.Since(start)
	return endToEnd(cfg, &t, wall, setupS), nil
}

// endToEnd fills the untraced report from wall-clock readings.
func endToEnd(cfg config, t *tally, wall time.Duration, setupS float64) *report {
	rep := &report{Correct: len(t.wrongs) == 0, Attempted: t.attempted, Failed: t.failed}
	lat := seconds(t.latencies)
	p50 := quantile(lat, 0.5)
	tailV, pct := tail(lat)
	rep.set("setup_s", setupS, "s")
	rep.set("solve_s.p50", p50, "s")
	rep.set("solve_s.tail", tailV, "s")
	rep.set("solves_per_s", float64(t.attempted-t.failed)/wall.Seconds(), "1/s")
	rep.set("max_rss_mb", maxRSSMB(), "MB")
	rep.notef("workload %s seed %d: %d attempted, %d failed (fail_frac %.4f) in %.2fs",
		cfg.workload, cfg.seed, t.attempted, t.failed, float64(t.failed)/float64(max(t.attempted, 1)), wall.Seconds())
	rep.notef("solve_s: p50 %.6f, tail p%d %.6f, over %d samples", p50, pct, tailV, len(lat))
	t.notes(rep)
	return rep
}

// notes reports the first missing verdict and every wrong one.
func (t *tally) notes(rep *report) {
	if t.firstMissing != "" {
		rep.notef("first failure: %s", t.firstMissing)
	}
	for _, why := range t.wrongs {
		rep.notef("WRONG: %s", why)
	}
}
