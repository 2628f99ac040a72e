package main

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/async"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/netrun"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/wire"
)

// stepStats is one agent's timing, shared by every incarnation of it.
type stepStats struct {
	steps     int64
	busy      time.Duration
	hist      durHist
	nogoodsIn int64
}

// timedAgent decorates an AWC agent with a timer around Init and Step.
// Embedding forwards every other method unchanged — Checks, CurrentValue,
// Insoluble (sim.InsolubleReporter), Checkpoint/Restore (sim.Checkpointer),
// Reannounce (sim.Reannouncer), SetCausal, Instrument, Stats and the store
// accessors — so the runtimes' optional-interface checks see exactly what
// they see on the bare agent.
type timedAgent struct {
	*core.Agent
	st *stepStats
}

var nogoodMsgType = reflect.TypeOf(core.NogoodMsg{})

func (a *timedAgent) Init() []sim.Message {
	start := time.Now()
	out := a.Agent.Init()
	a.observe(start)
	return out
}

func (a *timedAgent) Step(in []sim.Message) []sim.Message {
	for _, m := range in {
		if reflect.TypeOf(m) == nogoodMsgType {
			a.st.nogoodsIn++
		}
	}
	start := time.Now()
	out := a.Agent.Step(in)
	a.observe(start)
	return out
}

func (a *timedAgent) observe(start time.Time) {
	d := time.Since(start)
	a.st.steps++
	a.st.busy += d
	a.st.hist.add(d)
}

// The decorator must satisfy every optional interface the bare agent does.
var (
	_ sim.InsolubleReporter = (*timedAgent)(nil)
	_ sim.Checkpointer      = (*timedAgent)(nil)
	_ sim.Reannouncer       = (*timedAgent)(nil)
)

// tracedRun is the outcome of one traced solve: begin is the call,
// start the runtime call inside it, and wall the runtime call's duration.
type tracedRun struct {
	res          discsp.Result
	err          error
	begin, start time.Time
	wall         time.Duration
	agents       []*timedAgent
	stats        []stepStats
}

// total is the whole traced call, comparable to an untraced solve's time.
func (tr tracedRun) total() time.Duration { return tr.start.Add(tr.wall).Sub(tr.begin) }

// solveTraced runs j on the workload's runtime with agents built exactly
// as discsp.Solve, SolveAsync and SolveTCP build them (AWC, resolvent
// learning, RandomInitial from the job's seed, the same runtime options),
// each wrapped in the timing decorator.
func solveTraced(cfg config, rt string, j job) tracedRun {
	begin := time.Now()
	p := j.inst.p
	init := discsp.RandomInitial(p, j.initSeed)
	n := p.NumVars()
	tr := tracedRun{begin: begin, agents: make([]*timedAgent, n), stats: make([]stepStats, n)}
	makeAgent := func(v csp.Var) sim.Agent {
		a := &timedAgent{Agent: core.NewAgent(v, p, init[v], core.Learning{Kind: core.LearnResolvent}), st: &tr.stats[v]}
		tr.agents[v] = a
		return a
	}
	tr.start = time.Now()
	switch rt {
	case "sync":
		agents := make([]sim.Agent, n)
		for v := range agents {
			agents[v] = makeAgent(csp.Var(v))
		}
		var res sim.Result
		res, tr.err = sim.Run(p, agents, sim.Options{})
		tr.res = discsp.Result{Solved: res.Solved, Insoluble: res.Insoluble, Assignment: res.Assignment,
			Cycles: res.Cycles, MaxCCK: res.MaxCCK, TotalChecks: res.TotalChecks,
			Messages: int64(res.Messages), MessagesByType: res.MessagesByType}
	case "async":
		var res async.Result
		res, tr.err = async.Run(p, makeAgent, async.Options{Timeout: cfg.timeout, Seed: j.initSeed})
		tr.res = discsp.Result{Solved: res.Solved, Insoluble: res.Insoluble, Assignment: res.Assignment,
			TotalChecks: res.TotalChecks, Messages: res.Messages, Duration: res.Duration,
			Retransmits: res.Retransmits, DuplicatesSuppressed: res.DuplicatesSuppressed}
	case "tcp":
		codec, err := wire.ParseCodec("")
		if err != nil {
			tr.err = err
			break
		}
		var res netrun.Result
		res, tr.err = netrun.Run(p, makeAgent, netrun.Options{Timeout: cfg.timeout, Codec: codec})
		tr.res = discsp.Result{Solved: res.Solved, Insoluble: res.Insoluble, Assignment: res.Assignment,
			TotalChecks: res.TotalChecks, Messages: res.Messages, Duration: res.Duration,
			Retransmits: res.Retransmits, DuplicatesSuppressed: res.DuplicatesSuppressed,
			Reconnects: res.Reconnects, HeartbeatTimeouts: res.HeartbeatTimeouts,
			BytesSent: res.BytesSent, BytesRecv: res.BytesRecv, BatchedFrames: res.BatchedFrames}
	default:
		tr.err = fmt.Errorf("no traced solve for runtime %q", rt)
	}
	tr.wall = time.Since(tr.start)
	return tr
}

// inert compares a traced solve with the untraced public-entry-point solve
// of the same job. On the deterministic simulator every cost and the
// assignment must match bit for bit; the concurrent runtimes interleave
// differently on every run, so only the verdicts must match.
func inert(rt string, plain, traced discsp.Result) string {
	if plain.Solved != traced.Solved || plain.Insoluble != traced.Insoluble {
		return fmt.Sprintf("verdict differs: untraced solved=%v insoluble=%v, traced solved=%v insoluble=%v",
			plain.Solved, plain.Insoluble, traced.Solved, traced.Insoluble)
	}
	if rt != "sync" {
		return ""
	}
	if plain.Cycles != traced.Cycles || plain.MaxCCK != traced.MaxCCK ||
		plain.TotalChecks != traced.TotalChecks || plain.Messages != traced.Messages ||
		!reflect.DeepEqual(plain.Assignment, traced.Assignment) ||
		!reflect.DeepEqual(plain.MessagesByType, traced.MessagesByType) {
		return fmt.Sprintf("sync run differs: untraced cycles=%d maxcck=%d checks=%d msgs=%d, traced cycles=%d maxcck=%d checks=%d msgs=%d",
			plain.Cycles, plain.MaxCCK, plain.TotalChecks, plain.Messages,
			traced.Cycles, traced.MaxCCK, traced.TotalChecks, traced.Messages)
	}
	return ""
}

// layers accumulates the traced run's per-layer counters.
type layers struct {
	solves      int
	genS        float64
	steps       int64
	stepTime    time.Duration
	hist        durHist
	runWall     time.Duration
	checks      int64
	deadends    int64
	generated   int64
	redundant   int64
	recorded    int64
	pruned      int64
	raises      int64
	nogoodsIn   int64
	storeMax    int
	storeSum    int64
	storeN      int64
	cycles      int64
	maxcck      int64
	costCycles  int64
	msgs        int64
	retrans     int64
	dups        int64
	wireBytes   int64
	batched     int64
	reconnects  int64
	hbTimeouts  int64
	allocBytes  float64
	allocObjs   float64
	gcCPU       float64
	totalCPU    float64
	plainLat    []time.Duration
	tracedLat   []time.Duration
	serviceJobs []jobTiming
	shed        int
}

// add folds one traced solve into the totals.
func (l *layers) add(k, costSolves int, tr tracedRun) {
	l.solves++
	l.runWall += tr.wall
	for i := range tr.stats {
		st := &tr.stats[i]
		l.steps += st.steps
		l.stepTime += st.busy
		l.hist.merge(&st.hist)
		l.nogoodsIn += st.nogoodsIn
	}
	for _, a := range tr.agents {
		if a == nil {
			continue
		}
		s := a.Stats()
		l.deadends += s.Deadends
		l.generated += s.NogoodsGenerated
		l.redundant += s.RedundantGenerations
		l.recorded += s.NogoodsRecorded
		l.pruned += s.NogoodsPruned
		l.raises += s.PriorityRaises
		l.checks += a.Checks()
		size := a.StoreSize()
		l.storeMax = max(l.storeMax, size)
		l.storeSum += int64(size)
		l.storeN++
	}
	r := tr.res
	l.cycles += int64(r.Cycles)
	if k < costSolves {
		l.costCycles += int64(r.Cycles)
		l.maxcck += r.MaxCCK
	}
	l.msgs += r.Messages
	l.retrans += r.Retransmits
	l.dups += r.DuplicatesSuppressed
	l.wireBytes += r.BytesSent + r.BytesRecv
	l.batched += r.BatchedFrames
	l.reconnects += r.Reconnects
	l.hbTimeouts += r.HeartbeatTimeouts
}

// goSample reads the Go runtime counters the goruntime metrics difference.
type goSample struct{ allocBytes, allocObjs, gcCPU, totalCPU float64 }

var goMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goSample{v(0), v(1), v(2), v(3)}
}

// runTraced is the traced run of the sync, async and TCP workloads. Each
// job is solved twice, untraced through the public entry point and traced
// through the runtime with decorated agents, in alternating order; the
// pair must agree (see inert), and both verdicts are verified.
func runTraced(cfg config, w workload) (*report, error) {
	spans := newTracer()
	genStart := time.Now()
	pool, err := w.pool(cfg.seed)
	if err != nil {
		return nil, err
	}
	var l layers
	l.genS = time.Since(genStart).Seconds()
	spans.record(span{Name: "gen", Start: genStart, Dur: time.Since(genStart)})

	var t tally
	var mismatches []string
	goStart := readGo()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; !done(cfg, deadline, k) || k < cfg.costSolves; k++ {
		j := jobAt(pool, cfg.seed, k)
		var plain discsp.Result
		var plainErr error
		var plainD time.Duration
		var tr tracedRun
		var before, after goSample
		runPlainOnce := func() {
			t0 := time.Now()
			plain, plainErr = solvePlain(cfg, w.runtime, j)
			plainD = time.Since(t0)
		}
		runTracedOnce := func() {
			before = readGo()
			tr = solveTraced(cfg, w.runtime, j)
			after = readGo()
		}
		if k%2 == 0 {
			runPlainOnce()
			runTracedOnce()
		} else {
			runTracedOnce()
			runPlainOnce()
		}
		o, why := check(j.inst.p, plain.Solved, plain.Insoluble, plain.Assignment, plainErr)
		t.record(o, why, plainD)
		o, why = check(j.inst.p, tr.res.Solved, tr.res.Insoluble, tr.res.Assignment, tr.err)
		t.record(o, why, tr.total())
		if plainErr == nil && tr.err == nil {
			if why := inert(w.runtime, plain, tr.res); why != "" {
				mismatches = append(mismatches, fmt.Sprintf("job %d (%s): %s", k, j.inst.family, why))
			}
		}
		l.plainLat = append(l.plainLat, plainD)
		l.tracedLat = append(l.tracedLat, tr.total())
		l.allocBytes += after.allocBytes - before.allocBytes
		l.allocObjs += after.allocObjs - before.allocObjs
		l.add(k, cfg.costSolves, tr)
		spans.solve(k, tr)
	}
	goEnd := readGo()
	l.gcCPU = goEnd.gcCPU - goStart.gcCPU
	l.totalCPU = goEnd.totalCPU - goStart.totalCPU
	wall := time.Since(start)

	rep := &report{Correct: len(t.wrongs) == 0 && len(mismatches) == 0, Attempted: t.attempted, Failed: t.failed}
	perLayer(rep, w.runtime, &l)
	rep.notef("traced workload %s seed %d: %d solves (traced + untraced pairs), %d failed, in %.2fs",
		cfg.workload, cfg.seed, t.attempted, t.failed, wall.Seconds())
	t.notes(rep)
	for _, m := range mismatches {
		rep.notef("NOT INERT: %s", m)
	}
	path, err := spans.write(cfg)
	if err != nil {
		return nil, err
	}
	rep.notef("spans: %s", path)
	return rep, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer fills the traced report. Every metric is printed on every
// workload; a layer the workload does not run reads 0.
func perLayer(rep *report, rt string, l *layers) {
	solves := float64(l.solves)
	steps := float64(l.steps)
	msgs := float64(l.msgs)
	busy := ratio(l.stepTime.Seconds(), l.runWall.Seconds()*float64(runtime.GOMAXPROCS(0)))

	rep.set("gen.s", l.genS, "s")

	rep.set("core.steps", ratio(steps, solves), "count/solve")
	rep.set("core.step_s", ratio(l.stepTime.Seconds(), solves), "s/solve")
	rep.set("core.step_us.p50", l.hist.quantile(0.5)/1e3, "us")
	rep.set("core.step_us.p99", l.hist.quantile(0.99)/1e3, "us")
	rep.set("core.busy_frac", busy, "frac")
	rep.set("core.checks", ratio(float64(l.checks), solves), "count/solve")
	rep.set("core.checks_per_step", ratio(float64(l.checks), steps), "count/step")
	rep.set("core.deadends", ratio(float64(l.deadends), solves), "count/solve")
	rep.set("core.redundant_frac", ratio(float64(l.redundant), float64(l.generated)), "frac")
	rep.set("core.priority_raises", ratio(float64(l.raises), solves), "count/solve")

	rep.set("nogood.recorded", ratio(float64(l.recorded), solves), "count/solve")
	rep.set("nogood.recorded_frac", ratio(float64(l.recorded), float64(l.nogoodsIn)), "frac")
	rep.set("nogood.pruned", ratio(float64(l.pruned), solves), "count/solve")
	rep.set("nogood.store_len.max", float64(l.storeMax), "count")
	rep.set("nogood.store_len.mean", ratio(float64(l.storeSum), float64(l.storeN)), "count")

	var loopS, perCycle, cycles, maxcck float64
	var asyncMsgs, asyncRate, asyncPerStep, nonCore float64
	var netRate, retrans, dups, bytes, batched, reconnects, hb float64
	switch rt {
	case "sync":
		loopS = ratio((l.runWall - l.stepTime).Seconds(), solves)
		perCycle = ratio(msgs, float64(l.cycles))
		cycles, maxcck = float64(l.costCycles), float64(l.maxcck)
	case "dcspd":
		perCycle = ratio(msgs, float64(l.cycles))
		cycles, maxcck = float64(l.costCycles), float64(l.maxcck)
	case "async":
		asyncMsgs = ratio(msgs, solves)
		asyncRate = ratio(msgs, l.runWall.Seconds())
		asyncPerStep = ratio(msgs, steps)
		nonCore = 1 - busy
	case "tcp":
		netRate = ratio(msgs, l.runWall.Seconds())
		retrans = ratio(float64(l.retrans), msgs)
		dups = ratio(float64(l.dups), msgs)
		bytes = ratio(float64(l.wireBytes), msgs)
		// Each logical message crosses the hub's sockets twice (node to
		// hub, hub to node); acks and retransmissions ride batches too,
		// so the share can exceed 1.
		batched = ratio(float64(l.batched), 2*msgs)
		reconnects = ratio(float64(l.reconnects), solves)
		hb = ratio(float64(l.hbTimeouts), solves)
	}
	rep.set("sim.loop_s", loopS, "s/solve")
	rep.set("sim.msgs_per_cycle", perCycle, "count/cycle")
	rep.set("sim.cycles", cycles, "count")
	rep.set("sim.maxcck", maxcck, "count")

	rep.set("async.msgs", asyncMsgs, "count/solve")
	rep.set("async.msgs_per_s", asyncRate, "1/s")
	rep.set("async.msgs_per_step", asyncPerStep, "count/step")
	rep.set("async.non_core_frac", nonCore, "frac")

	rep.set("netrun.msgs_per_s", netRate, "1/s")
	rep.set("wire.retrans_per_msg", retrans, "count/msg")
	rep.set("wire.dups_per_msg", dups, "count/msg")
	rep.set("wire.bytes_per_msg", bytes, "B/msg")
	rep.set("wire.batched_frac", batched, "frac")
	rep.set("wire.reconnects", reconnects, "count/solve")
	rep.set("wire.heartbeat_timeouts", hb, "count/solve")

	serviceMetrics(rep, l)

	rep.set("goruntime.alloc_mb_per_solve", ratio(l.allocBytes/1e6, solves), "MB/solve")
	rep.set("goruntime.mallocs_per_msg", ratio(l.allocObjs, msgs), "count/msg")
	rep.set("goruntime.gc_cpu_frac", ratio(l.gcCPU, l.totalCPU), "frac")

	// A workload without traced/untraced pairs (dcspd) runs no
	// instrumentation, so it has no overhead to report.
	var overhead float64
	if len(l.plainLat) > 0 {
		plain := quantile(seconds(l.plainLat), 0.5)
		traced := quantile(seconds(l.tracedLat), 0.5)
		overhead = ratio(traced, plain) - 1
		rep.notef("trace overhead: traced p50 %.6fs vs untraced p50 %.6fs over %d pairs", traced, plain, len(l.plainLat))
	}
	rep.set("trace.overhead_frac", overhead, "frac")
	if rt == "tcp" {
		rep.notef("wire: %.0f retransmits for %.0f logical messages (%.3f per message)", float64(l.retrans), msgs, retrans)
	}
}
