// Reliable delivery: per-link sequence numbers, cumulative acks, a
// sender-side window of unacked frames, and a receiver-side dedup/reorder
// buffer. SendLink and RecvLink are pure state machines — no goroutines,
// no timers — driven by the transport that owns them (the netrun node
// loops), which makes them directly unit-testable under deterministic
// fault schedules.
//
// Together they restore the two transport guarantees the algorithms'
// correctness model (Yokoo et al.) assumes and a faulty network breaks:
// every message is eventually delivered exactly once, and deliveries on one
// directed link arrive in send order (FIFO per link). Nothing resends on a
// clock: the owner replays a Window only after a known loss.
package wire

import (
	"errors"
	"fmt"
)

// Buffer caps. Both halves of a reliable link hold memory proportional to
// how far the peer has fallen behind — the sender's unacked window, the
// receiver's out-of-order buffer. Under a long partition that growth is
// unbounded, so both are capped: hitting a cap is a hard, diagnosable
// error (wrapping ErrSendBufferFull / ErrReorderBufferFull), never silent
// growth. The receiver's buffer can in fact never legitimately outgrow the
// sender's window — an overflow there is a protocol violation, not load.
const (
	// DefaultMaxUnacked is the sender-side cap on buffered unacked frames.
	DefaultMaxUnacked = 4096
	// DefaultMaxReorder is the receiver-side cap on buffered out-of-order
	// frames.
	DefaultMaxReorder = 4096
)

// ErrSendBufferFull is wrapped by Stamp when the unacked buffer is at its
// cap: the receiver has not acked for so long (dead peer, never-healing
// partition) that buffering more would grow without bound.
var ErrSendBufferFull = errors.New("wire: send buffer full")

// ErrReorderBufferFull is wrapped by Accept when the out-of-order buffer is
// at its cap. A well-behaved sender's unacked window can never outrun it,
// so this marks a protocol violation.
var ErrReorderBufferFull = errors.New("wire: reorder buffer full")

// SendLink is the sender half of one directed reliable link: it stamps
// outgoing envelopes with consecutive sequence numbers and retains them
// until the receiver's cumulative ack covers them, so the owner can replay
// them after a loss.
type SendLink struct {
	nextSeq int64
	unacked []Envelope // seq-ascending
	limit   int
}

// NewSendLink builds a sender link whose first frame gets seq 1. The
// unacked buffer is capped at DefaultMaxUnacked; SetLimit overrides.
func NewSendLink() *SendLink {
	return &SendLink{nextSeq: 1, limit: DefaultMaxUnacked}
}

// SetLimit overrides the unacked-buffer cap; n <= 0 restores the default.
func (l *SendLink) SetLimit(n int) {
	if n <= 0 {
		n = DefaultMaxUnacked
	}
	l.limit = n
}

// Stamp assigns the next sequence number to e, buffers the stamped frame
// for replay, and returns it for transmission. It fails, without consuming
// a sequence number, when the unacked buffer is at its cap (the error wraps
// ErrSendBufferFull).
func (l *SendLink) Stamp(e Envelope) (Envelope, error) {
	if len(l.unacked) >= l.limit {
		return Envelope{}, fmt.Errorf("%w: %d frames to node %d unacked (oldest seq %d): peer dead or partitioned beyond the buffer cap",
			ErrSendBufferFull, len(l.unacked), e.To, l.unacked[0].Seq)
	}
	e.Seq = l.nextSeq
	l.nextSeq++
	l.unacked = append(l.unacked, e)
	return e, nil
}

// Ack drops every buffered frame with seq ≤ cum and reports how many were
// released. A stale or duplicate ack changes nothing.
func (l *SendLink) Ack(cum int64) int {
	n := 0
	for n < len(l.unacked) && l.unacked[n].Seq <= cum {
		n++
	}
	if n > 0 {
		l.unacked = append(l.unacked[:0], l.unacked[n:]...)
	}
	return n
}

// Window returns the unacked frames in seq order: what a replay resends.
// The slice aliases the link's buffer and is valid until the next Stamp,
// Ack, or Reset.
func (l *SendLink) Window() []Envelope { return l.unacked }

// Reset renumbers the link for a peer that restarted from scratch (a
// relaunched worker process with no durable checkpoint): the unacked window
// is restamped from seq 1 in order and the next fresh frame follows it, so
// the fresh peer's receive frontier (expecting seq 1) lines up with this
// sender's stream once the owner replays the Window.
func (l *SendLink) Reset() {
	for i := range l.unacked {
		l.unacked[i].Seq = int64(i + 1)
	}
	l.nextSeq = int64(len(l.unacked)) + 1
}

// SendLinkState is a SendLink's durable state: everything a restarted node
// needs to keep its outgoing seq stream consistent and replay what the
// receiver never acknowledged.
type SendLinkState struct {
	NextSeq int64
	Unacked []Envelope
}

// SnapshotState captures the link's durable state (deep enough: envelopes
// are value types and the slice is copied).
func (l *SendLink) SnapshotState() SendLinkState {
	st := SendLinkState{NextSeq: l.nextSeq}
	if len(l.unacked) > 0 {
		st.Unacked = make([]Envelope, len(l.unacked))
		copy(st.Unacked, l.unacked)
	}
	return st
}

// RestoreSendLink rebuilds a sender link from a checkpoint. The crash may
// have eaten the original transmissions, so the owner replays the restored
// Window; a spurious resend is harmless (the receiver dedups).
func RestoreSendLink(st SendLinkState) *SendLink {
	l := NewSendLink()
	if st.NextSeq > 0 {
		l.nextSeq = st.NextSeq
	}
	if len(st.Unacked) > 0 {
		l.unacked = make([]Envelope, len(st.Unacked))
		copy(l.unacked, st.Unacked)
	}
	return l
}

// RecvLink is the receiver half of one directed reliable link: it discards
// duplicates, buffers out-of-order arrivals, and releases frames in exact
// sequence order, restoring the FIFO-per-link guarantee.
type RecvLink struct {
	next  int64 // lowest seq not yet delivered
	buf   map[int64]Envelope
	limit int
	dups  int64
}

// NewRecvLink builds a receiver link expecting seq 1 first. The
// out-of-order buffer is capped at DefaultMaxReorder; SetLimit overrides.
func NewRecvLink() *RecvLink {
	return &RecvLink{next: 1, limit: DefaultMaxReorder}
}

// SetLimit overrides the reorder-buffer cap; n <= 0 restores the default.
func (l *RecvLink) SetLimit(n int) {
	if n <= 0 {
		n = DefaultMaxReorder
	}
	l.limit = n
}

// Accept feeds one arriving frame through the dedup/reorder buffer. It
// returns the frames released for in-order processing (possibly none, when
// e fills no gap) and whether e itself was a duplicate. Frames without a
// sequence number are passed through untouched. Buffering a new
// out-of-order frame past the cap fails (the error wraps
// ErrReorderBufferFull); duplicates and in-order frames never fail.
func (l *RecvLink) Accept(e Envelope) (deliver []Envelope, dup bool, err error) {
	if e.Seq == 0 {
		return []Envelope{e}, false, nil
	}
	if e.Seq < l.next {
		l.dups++
		return nil, true, nil
	}
	if e.Seq > l.next {
		if l.buf == nil {
			l.buf = make(map[int64]Envelope)
		}
		if _, exists := l.buf[e.Seq]; exists {
			l.dups++
			return nil, true, nil
		}
		if len(l.buf) >= l.limit {
			return nil, false, fmt.Errorf("%w: %d frames buffered from node %d waiting for seq %d (got seq %d)",
				ErrReorderBufferFull, len(l.buf), e.From, l.next, e.Seq)
		}
		l.buf[e.Seq] = e
		return nil, false, nil
	}
	deliver = append(deliver, e)
	l.next++
	for {
		nxt, ok := l.buf[l.next]
		if !ok {
			break
		}
		delete(l.buf, l.next)
		deliver = append(deliver, nxt)
		l.next++
	}
	return deliver, false, nil
}

// Reset rewinds the link for a peer that restarted from scratch: the
// frontier returns to seq 1 and every buffered out-of-order frame from the
// peer's previous incarnation is discarded (the peer renumbers and resends
// its window, so stale high-seq frames must not squat on slots the new
// stream will reach). The duplicate counter survives — it is cumulative
// accounting, not link state.
func (l *RecvLink) Reset() {
	l.next = 1
	l.buf = nil
}

// CumAck returns the cumulative acknowledgement: every seq ≤ CumAck has
// been released in order.
func (l *RecvLink) CumAck() int64 { return l.next - 1 }

// Buffered returns the number of out-of-order frames awaiting a gap fill.
func (l *RecvLink) Buffered() int { return len(l.buf) }

// Dups returns the cumulative number of duplicate frames suppressed.
func (l *RecvLink) Dups() int64 { return l.dups }

// RecvLinkState is a RecvLink's durable state. Only the in-order frontier
// is durable: buffered out-of-order frames die with a crash and are
// recovered by the sender's replay, which is why the frontier must never
// be advanced past what the owner has durably processed.
type RecvLinkState struct {
	Next int64
}

// SnapshotState captures the link's durable state.
func (l *RecvLink) SnapshotState() RecvLinkState {
	return RecvLinkState{Next: l.next}
}

// RestoreRecvLink rebuilds a receiver link from a checkpoint.
func RestoreRecvLink(st RecvLinkState) *RecvLink {
	l := NewRecvLink()
	if st.Next > 0 {
		l.next = st.Next
	}
	return l
}
