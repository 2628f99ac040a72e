// Tests for the survivability layer: worker dial retry, mid-solve
// reconnection, dead-peer detection, reconnect grace, and CRC-detected
// frame corruption. The network damage is staged through a loopback proxy
// so the hub and workers run unmodified.
package netrun

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/discsp/discsp/internal/breakout"
	"github.com/discsp/discsp/internal/core"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/faults"
	"github.com/discsp/discsp/internal/gen"
	"github.com/discsp/discsp/internal/sim"
)

// testProxy is a byte-level TCP proxy between workers and one hub relay. It
// can sever every open pipe (a crashed network path: both sides see a
// socket error) or blackhole them (a wedged path: bytes vanish, sockets
// stay open), while always passing connections dialed afterwards — which is
// exactly what a redialing worker produces.
type testProxy struct {
	ln     net.Listener
	target string

	mu        sync.Mutex
	pipes     []net.Conn
	gen       int // generation stamped on conns at accept
	silenced  int // pipes with gen < silenced discard instead of forwarding
	holeFirst int // the first holeFirst accepted pipes discard from the start
	accepted  int
	threshold int64  // byte total at which action fires
	action    func() // armed by armAt; runs once
	tripped   chan struct{}

	bytes atomic.Int64 // total payload bytes observed, both directions
	// damageUp, once set, flips the last byte of the next worker→hub
	// chunk on a connection past its handshake. On a checksummed
	// connection that byte ends a frame's CRC32C trailer, so the hub's
	// reader rejects exactly that frame.
	damageUp atomic.Bool
}

func newTestProxy(t *testing.T, target string) *testProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &testProxy{ln: ln, target: target}
	go p.acceptLoop()
	t.Cleanup(func() {
		ln.Close()
		p.severAll()
	})
	return p
}

func (p *testProxy) addr() string { return p.ln.Addr().String() }

func (p *testProxy) acceptLoop() {
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			down.Close()
			continue
		}
		p.mu.Lock()
		gen := p.gen
		if p.accepted < p.holeFirst {
			gen = -1 // below every silenced mark: wedged from birth
		}
		p.accepted++
		p.pipes = append(p.pipes, down, up)
		p.mu.Unlock()
		go p.pump(up, down, gen, true)
		go p.pump(down, up, gen, false)
	}
}

func (p *testProxy) pump(dst, src net.Conn, gen int, up bool) {
	buf := make([]byte, 32<<10)
	var piped int
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.trip(p.bytes.Add(int64(n)))
			if piped += n; up && piped > 256 && p.damageUp.CompareAndSwap(true, false) {
				buf[n-1] ^= 0xff
			}
			p.mu.Lock()
			hole := gen < p.silenced
			p.mu.Unlock()
			if !hole {
				if _, werr := dst.Write(buf[:n]); werr != nil {
					break
				}
			}
		}
		if err != nil {
			break
		}
	}
	dst.Close()
	src.Close()
}

// severAll closes every open pipe; connections dialed afterwards pass.
func (p *testProxy) severAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.pipes {
		c.Close()
	}
	p.pipes = nil
}

// silenceExisting blackholes every pipe open right now — bytes are read and
// discarded, sockets stay up — while future connections pass.
func (p *testProxy) silenceExisting() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gen++
	p.silenced = p.gen
}

// armAt schedules act (severAll, silenceExisting) for the moment the
// proxy's byte total first reaches n — "the run is demonstrably
// mid-solve". It runs on the pump that carries the crossing chunk, before
// that chunk is forwarded, so the damage lands at the same point of the
// run however the test goroutine is scheduled.
func (p *testProxy) armAt(n int64, act func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.threshold, p.action, p.tripped = n, act, make(chan struct{})
}

// trip fires the armed action once the byte total reaches the threshold.
func (p *testProxy) trip(total int64) {
	p.mu.Lock()
	act := p.action
	if act == nil || total < p.threshold {
		p.mu.Unlock()
		return
	}
	p.action = nil
	p.mu.Unlock()
	act()
	close(p.tripped)
}

// waitTripped blocks until the armed action has fired, or the deadline
// passes.
func (p *testProxy) waitTripped(t *testing.T, deadline time.Duration) {
	t.Helper()
	select {
	case <-p.tripped:
	case <-time.After(deadline):
		t.Fatalf("proxy carried only %d bytes in %v, want %d", p.bytes.Load(), deadline, p.threshold)
	}
}

func allVars(n int) []int {
	vars := make([]int, n)
	for i := range vars {
		vars[i] = i
	}
	return vars
}

// TestWorkerDialRetryBeforeHubListens pins the startup-order satellite: a
// worker launched before the hub binds its relays must retry the dial until
// ConnectTimeout instead of exiting on the first connection refusal.
func TestWorkerDialRetryBeforeHubListens(t *testing.T) {
	p, init := ringProblem(t, 6)
	maker := awcMaker(p, init)

	// Reserve an address the hub will bind later; until then dials to it
	// are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(p, maker, WorkerOptions{
			Addrs:          []string{addr},
			Vars:           allVars(6),
			ConnectTimeout: 15 * time.Second,
		})
		workerErr <- err
	}()

	// Let the worker accumulate a few refused dials before the hub exists.
	time.Sleep(300 * time.Millisecond)
	res, err := Run(p, maker, Options{
		Timeout:  30 * time.Second,
		Listen:   []string{addr},
		External: true,
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !p.IsSolution(res.Assignment) {
		t.Fatalf("not solved with late-binding hub: %+v", res)
	}
	if werr := <-workerErr; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
}

// TestWorkerReconnectAfterSever severs every worker connection mid-solve
// and requires the run to finish anyway: the workers redial, re-hello with
// the resume flag, replay their unacked windows, and both sides count the
// reconnection.
func TestWorkerReconnectAfterSever(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 78)
	maker := awcMaker(inst.Problem, init)

	addrsCh := make(chan []string, 1)
	type hubOut struct {
		res Result
		err error
	}
	hubCh := make(chan hubOut, 1)
	go func() {
		res, err := Run(inst.Problem, maker, Options{
			Timeout:        30 * time.Second,
			External:       true,
			ReconnectGrace: 10 * time.Second,
			OnListen:       func(addrs []string) { addrsCh <- addrs },
		})
		hubCh <- hubOut{res, err}
	}()
	addrs := <-addrsCh
	px := newTestProxy(t, addrs[0])
	px.armAt(4<<10, px.severAll)

	statsCh := make(chan WorkerStats, 1)
	workerErr := make(chan error, 1)
	go func() {
		st, err := RunWorker(inst.Problem, maker, WorkerOptions{
			Addrs:          []string{px.addr()},
			Vars:           allVars(inst.Problem.NumVars()),
			ConnectTimeout: 10 * time.Second,
		})
		statsCh <- st
		workerErr <- err
	}()

	px.waitTripped(t, 20*time.Second)

	out := <-hubCh
	if out.err != nil {
		t.Fatalf("run: %v (res=%+v)", out.err, out.res)
	}
	if !out.res.Solved || !inst.Problem.IsSolution(out.res.Assignment) {
		t.Fatalf("not solved across severed connections: %+v", out.res)
	}
	if out.res.Reconnects == 0 {
		t.Errorf("hub counted no reconnects after severing every pipe: %+v", out.res)
	}
	if werr := <-workerErr; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if st := <-statsCh; st.Reconnects == 0 {
		t.Errorf("worker counted no reconnects: %+v", st)
	}
}

// TestHandshakeBlackholeRedial wedges the first connections before their
// hellos reach the hub. The hub never learns of them, so only the nodes'
// bounded wait for the welcome can notice: they must give up, redial, and
// still run Init on the fresh session, or their neighbors never hear their
// values.
func TestHandshakeBlackholeRedial(t *testing.T) {
	inst, err := gen.Coloring(10, 20, 3, 81)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 82)
	maker := awcMaker(inst.Problem, init)

	addrsCh := make(chan []string, 1)
	type hubOut struct {
		res Result
		err error
	}
	hubCh := make(chan hubOut, 1)
	go func() {
		res, err := Run(inst.Problem, maker, Options{
			Timeout:        20 * time.Second,
			External:       true,
			Heartbeat:      25 * time.Millisecond,
			ReconnectGrace: 10 * time.Second,
			OnListen:       func(addrs []string) { addrsCh <- addrs },
		})
		hubCh <- hubOut{res, err}
	}()
	addrs := <-addrsCh
	px := newTestProxy(t, addrs[0])
	px.mu.Lock()
	px.holeFirst = 3
	px.mu.Unlock()

	st, werr := RunWorker(inst.Problem, maker, WorkerOptions{
		Addrs:           []string{px.addr()},
		Vars:            allVars(inst.Problem.NumVars()),
		ConnectTimeout:  10 * time.Second,
		Heartbeat:       25 * time.Millisecond,
		DeadPeerTimeout: 200 * time.Millisecond,
	})
	out := <-hubCh
	if out.err != nil {
		t.Fatalf("run: %v (res=%+v)", out.err, out.res)
	}
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if !out.res.Solved || !inst.Problem.IsSolution(out.res.Assignment) {
		t.Fatalf("not solved after wedged handshakes: %+v", out.res)
	}
	if st.Reconnects < 3 {
		t.Errorf("worker redialed %d times, want >= 3 (one per wedged handshake): %+v", st.Reconnects, st)
	}
}

// TestDeadPeerDetection blackholes the worker links mid-solve: sockets stay
// up but go silent, so only the heartbeat layer can notice. The hub must
// declare the peers dead (counting heartbeat timeouts), sever them, and
// accept the workers' redials within the reconnect grace.
func TestDeadPeerDetection(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 79)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 80)
	maker := awcMaker(inst.Problem, init)

	addrsCh := make(chan []string, 1)
	type hubOut struct {
		res Result
		err error
	}
	hubCh := make(chan hubOut, 1)
	go func() {
		res, err := Run(inst.Problem, maker, Options{
			Timeout:  30 * time.Second,
			External: true,
			// Fast liveness so the test turns around quickly. The hub's
			// dead-peer bound is deliberately much shorter than the workers'
			// (2s): the hub always detects first and severs, which is the
			// path under test.
			Heartbeat:       25 * time.Millisecond,
			DeadPeerTimeout: 150 * time.Millisecond,
			ReconnectGrace:  10 * time.Second,
			OnListen:        func(addrs []string) { addrsCh <- addrs },
		})
		hubCh <- hubOut{res, err}
	}()
	addrs := <-addrsCh
	px := newTestProxy(t, addrs[0])
	px.armAt(4<<10, px.silenceExisting)

	workerErr := make(chan error, 1)
	go func() {
		_, err := RunWorker(inst.Problem, maker, WorkerOptions{
			Addrs:           []string{px.addr()},
			Vars:            allVars(inst.Problem.NumVars()),
			ConnectTimeout:  10 * time.Second,
			Heartbeat:       25 * time.Millisecond,
			DeadPeerTimeout: 2 * time.Second,
		})
		workerErr <- err
	}()

	px.waitTripped(t, 20*time.Second)

	out := <-hubCh
	if out.err != nil {
		t.Fatalf("run: %v (res=%+v)", out.err, out.res)
	}
	if !out.res.Solved || !inst.Problem.IsSolution(out.res.Assignment) {
		t.Fatalf("not solved across blackholed links: %+v", out.res)
	}
	if out.res.HeartbeatTimeouts == 0 {
		t.Errorf("hub declared no dead peers under a blackhole: %+v", out.res)
	}
	if out.res.Reconnects == 0 {
		t.Errorf("no reconnects after dead-peer severing: %+v", out.res)
	}
	if werr := <-workerErr; werr != nil {
		t.Fatalf("worker: %v", werr)
	}
}

// TestReconnectGraceExpiry pins the grace window's failure edge: a node
// that dies for good (an unrestarted crash) holds the run in the parked
// state for exactly the grace window, then fails with a diagnostic
// ErrNodeDown naming the wait.
func TestReconnectGraceExpiry(t *testing.T) {
	p := insolubleTriangle(t)
	init := csp.SliceAssignment{0, 0, 0}
	start := time.Now()
	_, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{
		Timeout:        30 * time.Second,
		ReconnectGrace: 150 * time.Millisecond,
		Faults: &faults.Config{Seed: 1, Crashes: []faults.Crash{
			{Agent: 1, AfterSteps: 2, Restart: false},
		}},
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if !strings.Contains(err.Error(), "unreachable") || !strings.Contains(err.Error(), "awaiting reconnection") {
		t.Errorf("diagnostic %q does not describe the expired grace", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("grace expiry took %v; the run idled toward the timeout", elapsed)
	}
}

// TestNegativeGraceFailsImmediately pins the opt-out: ReconnectGrace < 0
// restores the pre-reconnection behavior — the first failed write to an
// unrestartable node kills the run with no parking.
func TestNegativeGraceFailsImmediately(t *testing.T) {
	p := insolubleTriangle(t)
	init := csp.SliceAssignment{0, 0, 0}
	_, err := Run(p, func(v csp.Var) sim.Agent {
		return breakout.NewAgent(v, p, init[v])
	}, Options{
		Timeout:        30 * time.Second,
		ReconnectGrace: -1,
		Faults: &faults.Config{Seed: 1, Crashes: []faults.Crash{
			{Agent: 1, AfterSteps: 2, Restart: false},
		}},
	})
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if strings.Contains(err.Error(), "awaiting reconnection") {
		t.Errorf("negative grace still parked frames: %q", err)
	}
}

// firstCopyDamaged damages the first copy of every algorithm frame and no
// retransmission, so no message arrives except by retransmission and a run
// whose initial values are not a solution cannot end without one.
var firstCopyDamaged = &faults.Config{Seed: 9, Corrupt: 1, MaxAttempts: 1}

// TestCorruptFramesRecoveredByCRC runs AWC under a corruption fault with
// the CRC32C trailer armed: every damaged frame must be detected and
// counted at the receiver, recovered by retransmission, and the run must
// end in a verified solution exactly like a clean network's.
func TestCorruptFramesRecoveredByCRC(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	if inst.Problem.IsSolution(init) {
		t.Fatal("initial values already solve the instance")
	}
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{
		Timeout:  60 * time.Second,
		Checksum: true,
		Faults:   firstCopyDamaged,
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("not solved under corruption: %+v", res)
	}
	if res.CorruptFrames == 0 {
		t.Errorf("no corrupt frames detected: %+v", res)
	}
	if res.Retransmits == 0 {
		t.Errorf("no retransmits; corrupted frames were not recovered by the transport: %+v", res)
	}
}

// TestCorruptWithoutChecksumDegradesToDrop pins the fault's behavior on
// links without the trailer: undetectable damage is indistinguishable from
// a drop, so the injector withholds the frame instead (the retransmit
// machinery still recovers) and nothing counts as corrupt.
func TestCorruptWithoutChecksumDegradesToDrop(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 71)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 72)
	if inst.Problem.IsSolution(init) {
		t.Fatal("initial values already solve the instance")
	}
	res, err := Run(inst.Problem, func(v csp.Var) sim.Agent {
		return core.NewAgent(v, inst.Problem, init[v], core.Learning{Kind: core.LearnResolvent})
	}, Options{
		Timeout: 60 * time.Second,
		Faults:  firstCopyDamaged,
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !inst.Problem.IsSolution(res.Assignment) {
		t.Fatalf("not solved under degraded corruption: %+v", res)
	}
	if res.CorruptFrames != 0 {
		t.Errorf("CorruptFrames = %d without a CRC trailer to detect them", res.CorruptFrames)
	}
	if res.Retransmits == 0 {
		t.Errorf("no retransmits; degraded drops were not recovered: %+v", res)
	}
}

// TestHubRejectedFrameReplayed damages one worker→hub frame mid-solve on a
// checksummed connection. The hub's reader must reject it by its CRC
// trailer and ask the worker's node to replay every unacked window (and
// restate its value), and the run must still end in a verified solution.
func TestHubRejectedFrameReplayed(t *testing.T) {
	inst, err := gen.Coloring(15, 35, 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	init := gen.RandomInitial(inst.Problem, 78)
	maker := awcMaker(inst.Problem, init)

	addrsCh := make(chan []string, 1)
	type hubOut struct {
		res Result
		err error
	}
	hubCh := make(chan hubOut, 1)
	go func() {
		res, err := Run(inst.Problem, maker, Options{
			Timeout:  30 * time.Second,
			External: true,
			Checksum: true,
			OnListen: func(addrs []string) { addrsCh <- addrs },
		})
		hubCh <- hubOut{res, err}
	}()
	addrs := <-addrsCh
	px := newTestProxy(t, addrs[0])
	px.damageUp.Store(true)

	st, werr := RunWorker(inst.Problem, maker, WorkerOptions{
		Addrs:          []string{px.addr()},
		Vars:           allVars(inst.Problem.NumVars()),
		ConnectTimeout: 10 * time.Second,
		Checksum:       true,
	})
	out := <-hubCh
	if out.err != nil {
		t.Fatalf("run: %v (res=%+v)", out.err, out.res)
	}
	if werr != nil {
		t.Fatalf("worker: %v", werr)
	}
	if !out.res.Solved || !inst.Problem.IsSolution(out.res.Assignment) {
		t.Fatalf("not solved after a hub-side CRC rejection: %+v", out.res)
	}
	if out.res.CorruptFrames == 0 {
		t.Errorf("hub rejected no frame: %+v", out.res)
	}
	// Nothing else is lost on this run, so only the hub's request can
	// have made the node replay its windows.
	if st.Retransmits == 0 {
		t.Errorf("node replayed nothing after the rejection: %+v", st)
	}
}

// TestLivenessDisabled pins the opt-out: Heartbeat < 0 turns the beacon
// layer off entirely and a clean run completes exactly as before.
func TestLivenessDisabled(t *testing.T) {
	p, init := ringProblem(t, 6)
	res, err := Run(p, awcMaker(p, init), Options{
		Timeout:   30 * time.Second,
		Heartbeat: -1,
	})
	if err != nil {
		t.Fatalf("run: %v (res=%+v)", err, res)
	}
	if !res.Solved || !p.IsSolution(res.Assignment) {
		t.Fatalf("not solved with liveness disabled: %+v", res)
	}
	if res.HeartbeatTimeouts != 0 || res.Reconnects != 0 {
		t.Errorf("liveness counters nonzero with liveness disabled: %+v", res)
	}
}
