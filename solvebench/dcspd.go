package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/discsp/discsp"
	"github.com/discsp/discsp/internal/service"
)

// serviceJobRate sizes a dcspd run: its one closed-loop client submits
// serviceJobRate jobs per second of --seconds, a little under what it
// completes. The
// daemon keeps every finished job and its event log in memory, so its
// resident size grows with each job; a fixed job count keeps max_rss_mb
// comparable between versions, where a time-bounded run would charge a
// faster daemon for the extra jobs it finished.
const serviceJobRate = 50

// daemon is a dcspd service with a real on-disk journal, served over
// loopback HTTP exactly as cmd/dcspd serves it.
type daemon struct {
	d      *service.Daemon
	srv    *http.Server
	url    string
	dir    string
	served chan error
}

func startDaemon(cfg config) (*daemon, error) {
	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.stateDir, "dcspd-")
	if err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	d, err := service.New(service.Config{
		JournalPath:     filepath.Join(dir, "jobs.journal"),
		DefaultDeadline: cfg.timeout,
		Logf:            func(string, ...any) {},
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("listen: %w", err)
	}
	dm := &daemon{d: d, srv: &http.Server{Handler: service.Handler(d)}, url: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { dm.served <- dm.srv.Serve(ln) }()
	return dm, nil
}

// stop drains the daemon (every accepted job reaches a verdict), shuts the
// HTTP server down, waits for it, and removes the journal.
func (dm *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	shutErr := dm.srv.Shutdown(ctx)
	if err := <-dm.served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	drainErr := dm.d.Drain(ctx)
	return errors.Join(shutErr, drainErr, os.RemoveAll(dm.dir))
}

// serviceJob is one prepared submission: the instance and the problem JSON
// a client posts.
type serviceJob struct {
	inst    instance
	problem json.RawMessage
}

// serviceSetup generates and encodes the pool and starts the daemon, the
// set-up a user pays before the first job.
func serviceSetup(cfg config, w workload) ([]serviceJob, *daemon, error) {
	pool, err := w.pool(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	jobs := make([]serviceJob, len(pool))
	for i, inst := range pool {
		var buf bytes.Buffer
		if err := discsp.WriteProblemJSON(&buf, inst.p); err != nil {
			return nil, nil, fmt.Errorf("encode problem: %w", err)
		}
		jobs[i] = serviceJob{inst: inst, problem: buf.Bytes()}
	}
	dm, err := startDaemon(cfg)
	if err != nil {
		return nil, nil, err
	}
	return jobs, dm, nil
}

// jobTiming is one job's service-side breakdown.
type jobTiming struct {
	submitMS, queueMS, runMS, overheadMS float64
	attempts                             int
}

// jobResult is what a client observed for job k.
type jobResult struct {
	k       int
	latency time.Duration
	outcome outcome
	why     string
	shed    bool
	status  service.JobStatus
	timing  jobTiming
}

// client submits one job and waits for its verdict: POST /v1/jobs, follow
// the job's event stream until the daemon closes it at completion, then
// GET the final status.
func client(hc *http.Client, url string, sj serviceJob, initSeed int64) (res jobResult) {
	start := time.Now()
	defer func() { res.latency = time.Since(start) }()
	body, err := json.Marshal(service.JobSpec{Tenant: "bench", Runtime: "sync", Format: "json", Problem: sj.problem, Seed: initSeed})
	if err != nil {
		res.outcome, res.why = missing, err.Error()
		return res
	}
	resp, err := hc.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		res.outcome, res.why = missing, err.Error()
		return res
	}
	var ack service.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	res.timing.submitMS = float64(time.Since(start)) / 1e6
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		res.outcome, res.why, res.shed = missing, "shed with 429", true
		return res
	case resp.StatusCode != http.StatusAccepted:
		res.outcome, res.why = missing, fmt.Sprintf("submit: HTTP %d", resp.StatusCode)
		return res
	case err != nil:
		res.outcome, res.why = missing, fmt.Sprintf("submit: %v", err)
		return res
	}
	resp, err = hc.Get(url + "/v1/jobs/" + ack.ID + "/events?follow=1")
	if err != nil {
		res.outcome, res.why = missing, err.Error()
		return res
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		res.outcome, res.why = missing, fmt.Sprintf("wait: %v", err)
		return res
	}
	resp, err = hc.Get(url + "/v1/jobs/" + ack.ID)
	if err != nil {
		res.outcome, res.why = missing, err.Error()
		return res
	}
	err = json.NewDecoder(resp.Body).Decode(&res.status)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		res.outcome, res.why = missing, fmt.Sprintf("status: HTTP %d %v", resp.StatusCode, err)
		return res
	}
	st := res.status
	res.timing.queueMS, res.timing.runMS, res.timing.attempts = float64(st.QueueMS), float64(st.RunMS), st.Attempts
	if st.State != service.StateDone {
		res.outcome, res.why = missing, fmt.Sprintf("job %s still %s after its stream closed", st.ID, st.State)
		return res
	}
	a := make(discsp.SliceAssignment, len(st.Assignment))
	for i, v := range st.Assignment {
		a[i] = discsp.Value(v)
	}
	solved := st.Verdict == service.VerdictSolved
	var jobErr error
	if !solved && st.Verdict != service.VerdictInsoluble {
		jobErr = fmt.Errorf("verdict %s: %s", st.Verdict, st.Error)
	}
	res.outcome, res.why = check(sj.inst.p, solved, st.Verdict == service.VerdictInsoluble, a, jobErr)
	return res
}

// runService is the dcspd-sat workload, untraced or traced. One
// closed-loop client submits a job sequence of fixed length (see
// serviceJobRate); job k is the same submission in every run of a seed.
// The traced run records spans around every job's submit and wait, taken
// from the timestamps the client keeps anyway: the daemon path is the
// same as untraced, so trace.overhead_frac reads 0 on this workload.
//
// One client, because with two on two CPUs the daemon's two solver
// workers kept both CPUs busy and each submit waited for a scheduler
// slice: job latency moved from 10.5ms to 15ms between runs with the
// solver work unchanged. With one client the measured latency is the
// daemon's own path: HTTP, JSON, the journal, the event stream and the
// solve.
func runService(cfg config, w workload) (*report, error) {
	spans := newTracer()
	setupTimes := make([]float64, setupRepeats)
	var jobs []serviceJob
	var dm *daemon
	for i := range setupTimes {
		runtime.GC()
		start := time.Now()
		js, d, err := serviceSetup(cfg, w)
		elapsed := time.Since(start)
		if dm != nil {
			// Only the last set-up's daemon serves the run.
			err = errors.Join(err, dm.stop())
		}
		if err != nil {
			if d != nil {
				d.stop() // the set-up error is the one worth reporting
			}
			return nil, err
		}
		setupTimes[i] = elapsed.Seconds()
		if i == 0 {
			spans.record(span{Name: "gen", Start: start, Dur: elapsed})
		}
		jobs, dm = js, d
	}
	genS := setupTimes[0]
	setupS := quantile(setupTimes, 0.5)

	hc := &http.Client{Transport: &http.Transport{}}
	total := max(cfg.minSolves, int(cfg.seconds*serviceJobRate))
	if cfg.trace {
		total = max(total, cfg.costSolves)
	}
	results := make([]jobResult, 0, total)
	goStart := readGo()
	start := time.Now()
	for k := 0; k < total; k++ {
		jobStart := time.Now()
		r := client(hc, dm.url, jobs[k%len(jobs)], derive(cfg.seed, streamInit, k))
		r.k = k
		if cfg.trace {
			root := spans.id()
			submit := time.Duration(r.timing.submitMS * 1e6)
			spans.record(span{ID: root, Name: "solve", Job: k, Start: jobStart, Dur: r.latency})
			spans.record(span{Parent: root, Name: "service.submit", Job: k, Start: jobStart, Dur: submit})
			spans.record(span{Parent: root, Name: "service.wait", Job: k, Start: jobStart.Add(submit), Dur: r.latency - submit})
		}
		results = append(results, r)
	}
	wall := time.Since(start)
	goEnd := readGo()
	hc.CloseIdleConnections()
	if err := dm.stop(); err != nil {
		return nil, err
	}

	var t tally
	l := layers{
		genS:       genS,
		allocBytes: goEnd.allocBytes - goStart.allocBytes,
		allocObjs:  goEnd.allocObjs - goStart.allocObjs,
		gcCPU:      goEnd.gcCPU - goStart.gcCPU,
		totalCPU:   goEnd.totalCPU - goStart.totalCPU,
	}
	for _, r := range results {
		t.record(r.outcome, r.why, r.latency)
		if r.shed {
			l.shed++
		}
		if !cfg.trace {
			continue
		}
		l.solves++
		st := r.status
		l.cycles += int64(st.Cycles)
		l.msgs += st.Messages
		if r.k < cfg.costSolves {
			l.costCycles += int64(st.Cycles)
			l.maxcck += st.MaxCCK
		}
		if st.State == service.StateDone {
			tm := r.timing
			tm.overheadMS = float64(r.latency)/1e6 - tm.queueMS - tm.runMS
			l.serviceJobs = append(l.serviceJobs, tm)
		}
	}
	if !cfg.trace {
		return endToEnd(cfg, &t, wall, setupS), nil
	}
	rep := &report{Correct: len(t.wrongs) == 0, Attempted: t.attempted, Failed: t.failed}
	perLayer(rep, w.runtime, &l)
	rep.notef("traced workload %s seed %d: %d jobs, %d failed, in %.2fs", cfg.workload, cfg.seed, t.attempted, t.failed, wall.Seconds())
	t.notes(rep)
	path, err := spans.write(cfg)
	if err != nil {
		return nil, err
	}
	rep.notef("spans: %s", path)
	return rep, nil
}

// serviceMetrics fills the service layer's metrics; all read 0 on
// workloads that do not run the daemon.
func serviceMetrics(rep *report, l *layers) {
	var submit, queue, runMS, overhead []float64
	var attempts int
	for _, j := range l.serviceJobs {
		submit = append(submit, j.submitMS)
		queue = append(queue, j.queueMS)
		runMS = append(runMS, j.runMS)
		overhead = append(overhead, j.overheadMS)
		attempts += j.attempts
	}
	rep.set("service.submit_ms.p50", quantile(submit, 0.5), "ms")
	rep.set("service.queue_ms.p50", quantile(queue, 0.5), "ms")
	rep.set("service.run_ms.p50", quantile(runMS, 0.5), "ms")
	rep.set("service.overhead_ms.p50", quantile(overhead, 0.5), "ms")
	rep.set("service.attempts_per_job", ratio(float64(attempts), float64(len(l.serviceJobs))), "count/job")
	rep.set("service.shed", float64(l.shed), "count")
}
