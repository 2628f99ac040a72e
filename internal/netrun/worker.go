package netrun

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/discsp/discsp/internal/causal"
	"github.com/discsp/discsp/internal/csp"
	"github.com/discsp/discsp/internal/sim"
	"github.com/discsp/discsp/internal/wire"
)

// WorkerOptions configures RunWorker.
type WorkerOptions struct {
	// Addrs are the hub's relay addresses in shard order. Node v dials
	// Addrs[v mod len(Addrs)] — the same consistent assignment the hub
	// uses, so each node lands on its home shard.
	Addrs []string
	// Vars are the variables this worker owns; each becomes one node.
	Vars []int
	// Codec is the wire codec to request (zero value = binary); the hub's
	// welcome decides per connection.
	Codec wire.Codec
	// NoBatch disables frame batching on the worker's writers.
	NoBatch bool
	// DrainWindow bounds how long a node with a failed write drains inbound
	// frames for the hub's stop before classifying the error as a hub
	// death; 0 means the 1s default. External workers on slow links raise
	// it so a graceful hub shutdown is not mistaken for a crash.
	DrainWindow time.Duration
	// ConnectTimeout bounds each node's dial-with-retry loop — at startup,
	// where the worker may launch before the hub listens, and on
	// reconnection after a severed socket; 0 means 15s.
	ConnectTimeout time.Duration
	// Checksum requests the CRC32C frame trailer in each node's hello; the
	// hub's welcome confirms it per connection (binary codec only, and
	// only when the hub armed checksums too).
	Checksum bool
	// Heartbeat is the idle-link beacon period; 0 means 500ms, negative
	// disables. It should match the hub's setting: the hub declares a node
	// dead after DeadPeerTimeout of silence.
	Heartbeat time.Duration
	// DeadPeerTimeout is the node-side hub-silence bound: hearing nothing
	// (not even a heartbeat) for this long makes a node abandon its
	// connection and redial. 0 means 4× the heartbeat period; it is
	// disabled when heartbeats are.
	DeadPeerTimeout time.Duration
	// Causal, when non-nil, traces this worker's nodes and requests causal
	// trace-ID propagation in each hello; the hub confirms only when its
	// run enabled Causal or CausalRelay. The caller owns the tracer (and
	// its sink), so a worker relaunched with the same tracer keeps its
	// trace-ID counters — cause IDs stay stable across cold reconnections.
	Causal *causal.Tracer
}

// WorkerStats reports one worker's transport totals after RunWorker
// returns: the worker-side view of the counters the hub's Result carries
// for in-process runs.
type WorkerStats struct {
	// Reconnects counts sessions re-established after a severed
	// connection, summed over the worker's nodes.
	Reconnects int64
	// Retransmits counts frames replayed after a loss.
	Retransmits int64
	// DuplicatesSuppressed counts deliveries absorbed by the dedup layer.
	DuplicatesSuppressed int64
	// CorruptFrames counts inbound frames rejected by the CRC32C trailer
	// and recovered by a replay from their senders.
	CorruptFrames int64
}

// RunWorker runs agent nodes against an external hub — a Run with
// Options.External on another goroutine, process, or machine (cmd/dcspnode
// is the process form). It blocks until the hub broadcasts stop or tears
// the connections down; once any node observes the stop, its siblings'
// subsequent socket errors count as the same clean shutdown. Faults are
// hub-side configuration, so worker nodes never crash-restart — but they do
// reconnect: a node that loses its socket mid-solve redials and resumes,
// and one that dials before the hub listens retries until ConnectTimeout.
func RunWorker(problem *csp.Problem, makeAgent func(v csp.Var) sim.Agent, opts WorkerOptions) (WorkerStats, error) {
	if len(opts.Addrs) == 0 {
		return WorkerStats{}, errors.New("netrun: worker needs at least one relay address")
	}
	if len(opts.Vars) == 0 {
		return WorkerStats{}, errors.New("netrun: worker owns no variables")
	}
	n := problem.NumVars()
	for _, v := range opts.Vars {
		if v < 0 || v >= n {
			return WorkerStats{}, fmt.Errorf("netrun: worker variable %d out of range [0,%d)", v, n)
		}
	}
	hb := opts.Heartbeat
	if hb == 0 {
		hb = defaultHeartbeat
	}
	if hb < 0 {
		hb = 0
	}
	deadPeer := opts.DeadPeerTimeout
	if deadPeer <= 0 {
		deadPeer = 4 * hb
	}
	ctr := nodeCounters{checks: make([]atomic.Int64, n)}
	done := make(chan struct{})
	var once sync.Once
	stopped := func() { once.Do(func() { close(done) }) }

	var wg sync.WaitGroup
	errs := make(chan error, len(opts.Vars))
	for _, v := range opts.Vars {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			cfg := nodeConfig{
				addr:           opts.Addrs[shardOf(v, len(opts.Addrs))],
				v:              csp.Var(v),
				makeAgent:      makeAgent,
				codec:          opts.Codec,
				noBatch:        opts.NoBatch,
				crc:            opts.Checksum,
				causal:         opts.Causal,
				hb:             hb,
				ctr:            &ctr,
				done:           done,
				onStop:         stopped,
				drainWindow:    opts.DrainWindow,
				reconnect:      true,
				connectTimeout: opts.ConnectTimeout,
				deadPeer:       deadPeer,
			}
			if _, err := runNode(cfg, 0); err != nil {
				errs <- fmt.Errorf("node %d: %w", v, err)
			}
		}(v)
	}
	wg.Wait()
	close(errs)
	stats := WorkerStats{
		Reconnects:           ctr.reconnects.Load(),
		Retransmits:          ctr.retransmits.Load(),
		DuplicatesSuppressed: ctr.dups.Load(),
		CorruptFrames:        ctr.corrupt.Load(),
	}
	for err := range errs {
		return stats, err
	}
	return stats, nil
}
