package telemetry

import "fmt"

// Transport is the reliability-layer counter block shared by every surface
// that reports it: dcspsolve/dcspbench output, FprintRuntimes and
// MarkdownRuntimes tables, the Prometheus snapshot, and end events in the
// telemetry stream. Before this type each of those carried its own copy of
// the five fields and its own formatter.
type Transport struct {
	// Retransmits counts dropped attempts (modelled as delay) plus frames
	// replayed after a loss. A clean run counts none.
	Retransmits int64 `json:"retransmits,omitempty"`
	// DuplicatesSuppressed counts deliveries absorbed by the dedup layer.
	DuplicatesSuppressed int64 `json:"duplicatesSuppressed,omitempty"`
	// Restarts counts crashed agents restarted from their checkpoints.
	Restarts int64 `json:"restarts,omitempty"`
	// Partitioned counts deliveries cut or deferred by a partition.
	Partitioned int64 `json:"partitioned,omitempty"`
	// PartitionHeals counts partition windows that healed within the run.
	PartitionHeals int64 `json:"partitionHeals,omitempty"`
	// Reconnects counts node connections re-established mid-run (worker
	// redials and cold process relaunches). TCP runtime only.
	Reconnects int64 `json:"reconnects,omitempty"`
	// HeartbeatTimeouts counts dead-peer declarations: links silent past
	// the dead-peer timeout. TCP runtime only.
	HeartbeatTimeouts int64 `json:"heartbeatTimeouts,omitempty"`
	// CorruptFrames counts frames rejected by the CRC32C trailer and
	// recovered by a replay. TCP runtime only.
	CorruptFrames int64 `json:"corruptFrames,omitempty"`

	// BytesSent and BytesRecv count wire bytes crossing the hub's sockets
	// (framing included): hub→nodes and nodes→hub respectively. TCP runtime
	// only; zero elsewhere.
	BytesSent int64 `json:"bytesSent,omitempty"`
	BytesRecv int64 `json:"bytesRecv,omitempty"`
	// BatchedFrames counts frames that crossed the sockets inside coalesced
	// batch frames rather than as individual writes, both directions summed.
	BatchedFrames int64 `json:"batchedFrames,omitempty"`
}

// IsZero reports whether every counter is zero (a clean run).
func (t Transport) IsZero() bool {
	return t == Transport{}
}

// Suffix renders the counters as the one-line " retrans=… dups=…" block
// dcspsolve and dcspbench append to verdict lines, or "" when all zero.
// The reliability block appears when any reliability counter is nonzero and
// the wire block when any byte counter is, so a clean TCP run shows its
// traffic volume without dragging in five zeros.
func (t Transport) Suffix() string {
	var s string
	if t.Retransmits|t.DuplicatesSuppressed|t.Restarts|t.Partitioned|t.PartitionHeals != 0 {
		s = fmt.Sprintf(" retrans=%d dups=%d restarts=%d partitioned=%d heals=%d",
			t.Retransmits, t.DuplicatesSuppressed, t.Restarts, t.Partitioned, t.PartitionHeals)
	}
	if t.Reconnects|t.HeartbeatTimeouts|t.CorruptFrames != 0 {
		s += fmt.Sprintf(" reconnects=%d hb_timeouts=%d corrupt=%d",
			t.Reconnects, t.HeartbeatTimeouts, t.CorruptFrames)
	}
	if t.BytesSent|t.BytesRecv|t.BatchedFrames != 0 {
		s += fmt.Sprintf(" bytes_out=%d bytes_in=%d batched=%d",
			t.BytesSent, t.BytesRecv, t.BatchedFrames)
	}
	return s
}

// TransportColumns is the canonical column order used by the table
// renderers, aligned with Transport.Values.
var TransportColumns = []string{"retrans", "dups", "restarts", "partitioned", "heals",
	"reconnects", "hb_timeouts", "corrupt", "bytes_out", "bytes_in", "batched"}

// Values returns the counters in TransportColumns order.
func (t Transport) Values() []int64 {
	return []int64{t.Retransmits, t.DuplicatesSuppressed, t.Restarts, t.Partitioned, t.PartitionHeals,
		t.Reconnects, t.HeartbeatTimeouts, t.CorruptFrames,
		t.BytesSent, t.BytesRecv, t.BatchedFrames}
}

// Record adds the counters into reg under the canonical metric names.
// No-op on a nil registry.
func (t Transport) Record(reg *Registry) {
	if reg == nil {
		return
	}
	reg.Counter("discsp_transport_retransmits_total").Add(t.Retransmits)
	reg.Counter("discsp_transport_dups_suppressed_total").Add(t.DuplicatesSuppressed)
	reg.Counter("discsp_transport_restarts_total").Add(t.Restarts)
	reg.Counter("discsp_transport_partitioned_total").Add(t.Partitioned)
	reg.Counter("discsp_transport_partition_heals_total").Add(t.PartitionHeals)
	reg.Counter("discsp_transport_reconnects_total").Add(t.Reconnects)
	reg.Counter("discsp_transport_heartbeat_timeouts_total").Add(t.HeartbeatTimeouts)
	reg.Counter("discsp_transport_corrupt_frames_total").Add(t.CorruptFrames)
	reg.Counter("discsp_transport_bytes_sent_total").Add(t.BytesSent)
	reg.Counter("discsp_transport_bytes_recv_total").Add(t.BytesRecv)
	reg.Counter("discsp_transport_batched_frames_total").Add(t.BatchedFrames)
}
