package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// Backpressure error paths at the seams the plain cap tests don't cross:
// the buffer caps firing while frames sit in an unflushed batch, and one
// shard's full link erroring without disturbing its neighbors. The
// invariant under test throughout: a failed Stamp consumes no sequence
// number, so the stream the receiver reassembles stays gapless.

// drain reads every frame out of sock in the binary codec.
func drain(t *testing.T, sock *bytes.Buffer) []Envelope {
	t.Helper()
	fr := NewFrameReader(sock)
	fr.SetCodec(CodecBinary)
	var out []Envelope
	for {
		e, err := fr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return out
			}
			t.Fatalf("Next: %v", err)
		}
		e.Detach()
		out = append(out, e)
	}
}

// TestSendCapUnderBatching hits the unacked cap while earlier stamped
// frames are still coalescing in an unflushed batch. The failed Stamp must
// consume no seq and must not disturb the pending batch; after an ack the
// stream resumes exactly where it left off, and the receiver releases a
// gapless sequence.
func TestSendCapUnderBatching(t *testing.T) {
	sl := NewSendLink()
	sl.SetLimit(3)
	var sock bytes.Buffer
	fw := NewFrameWriter(&sock)
	if err := fw.SetCodec(CodecBinary); err != nil {
		t.Fatal(err)
	}
	fw.EnableBatching(64, 1<<20) // large bounds: nothing auto-flushes

	for i := 0; i < 3; i++ {
		e := mustStamp(t, sl, Envelope{Type: TypeCoreOk, From: 0, To: 1, Value: i})
		if err := fw.Send(&e); err != nil {
			t.Fatal(err)
		}
	}
	if !fw.Pending() {
		t.Fatal("batch flushed early; test needs frames in flight")
	}

	if _, err := sl.Stamp(Envelope{Type: TypeCoreOk, From: 0, To: 1, Value: 99}); !errors.Is(err, ErrSendBufferFull) {
		t.Fatalf("over-cap stamp: err = %v, want ErrSendBufferFull", err)
	}
	if len(sl.Window()) != 3 {
		t.Fatalf("failed stamp changed pending: %d", len(sl.Window()))
	}

	// The ack releases capacity; the next stamp must get seq 4 — the
	// failed attempt burned nothing even with a batch open.
	sl.Ack(1)
	e := mustStamp(t, sl, Envelope{Type: TypeCoreOk, From: 0, To: 1, Value: 3})
	if e.Seq != 4 {
		t.Fatalf("post-ack seq = %d, want 4", e.Seq)
	}
	if err := fw.Send(&e); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if fw.Batches != 1 || fw.BatchedFrames != 4 {
		t.Fatalf("batch counters = %d/%d, want 1 batch of 4", fw.Batches, fw.BatchedFrames)
	}

	rl := NewRecvLink()
	var released []int64
	for _, e := range drain(t, &sock) {
		got, dup, err := rl.Accept(e)
		if err != nil || dup {
			t.Fatalf("Accept(seq %d): dup=%v err=%v", e.Seq, dup, err)
		}
		for _, d := range got {
			released = append(released, d.Seq)
		}
	}
	for i, seq := range released {
		if seq != int64(i+1) {
			t.Fatalf("released seqs %v: gap or reorder at %d", released, i)
		}
	}
	if len(released) != 4 || rl.CumAck() != 4 {
		t.Fatalf("released %d frames, cumack %d, want 4/4", len(released), rl.CumAck())
	}
}

// TestReorderCapUnderBatchedDelivery loses the head of a batched burst so
// every following frame is out of order. The receiver buffers up to its
// cap, rejects the overflow with ErrReorderBufferFull without advancing
// the frontier, and recovers losslessly once a replay fills the gap:
// the overflow frame is simply replayed too, like any unacked frame.
func TestReorderCapUnderBatchedDelivery(t *testing.T) {
	sl := NewSendLink()
	var sock bytes.Buffer
	fw := NewFrameWriter(&sock)
	if err := fw.SetCodec(CodecBinary); err != nil {
		t.Fatal(err)
	}
	fw.EnableBatching(8, 1<<20)

	var stamped []Envelope
	for i := 0; i < 5; i++ {
		stamped = append(stamped, mustStamp(t, sl, Envelope{Type: TypeCoreOk, From: 0, To: 1, Value: i}))
	}
	// Transmit the batch minus its head: seq 1 is lost on the wire.
	for _, e := range stamped[1:] {
		if err := fw.Send(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}

	rl := NewRecvLink()
	rl.SetLimit(3)
	arrived := drain(t, &sock)
	var overflow []Envelope
	for _, e := range arrived {
		got, dup, err := rl.Accept(e)
		if err != nil {
			if !errors.Is(err, ErrReorderBufferFull) {
				t.Fatalf("Accept(seq %d): %v", e.Seq, err)
			}
			overflow = append(overflow, e)
			continue
		}
		if dup || len(got) != 0 {
			t.Fatalf("Accept(seq %d) with seq 1 missing: released %d, dup=%v", e.Seq, len(got), dup)
		}
	}
	if len(overflow) != 1 || overflow[0].Seq != 5 {
		t.Fatalf("overflow = %+v, want exactly seq 5", overflow)
	}
	if rl.Buffered() != 3 || rl.CumAck() != 0 {
		t.Fatalf("buffered %d cumack %d after overflow, want 3/0", rl.Buffered(), rl.CumAck())
	}

	// Nothing was acked, so a replay re-offers the whole window — the gap
	// filler and the overflowed frame alike.
	due := sl.Window()
	if len(due) != 5 {
		t.Fatalf("replay window = %d frames, want 5", len(due))
	}
	var released []int64
	dups := 0
	for _, e := range due {
		got, dup, err := rl.Accept(e)
		if err != nil {
			t.Fatalf("Accept(replayed seq %d): %v", e.Seq, err)
		}
		if dup {
			dups++
		}
		for _, d := range got {
			released = append(released, d.Seq)
		}
	}
	for i, seq := range released {
		if seq != int64(i+1) {
			t.Fatalf("released seqs %v: gap or reorder at %d", released, i)
		}
	}
	if len(released) != 5 || rl.CumAck() != 5 || rl.Buffered() != 0 {
		t.Fatalf("after recovery: released %d cumack %d buffered %d, want 5/5/0", len(released), rl.CumAck(), rl.Buffered())
	}
	if dups != 3 {
		t.Fatalf("dedup suppressed %d replayed frames, want the 3 already buffered", dups)
	}
}

// TestShardBoundaryBackpressureIsolation runs two directed links side by
// side, one per shard, each with its own batching writer — the layout the
// sharded hub gives a node whose peers hash to different relays. Filling
// shard 0 to its cap must error on that link only: shard 1 keeps stamping,
// and shard 0's own seq stream continues contiguously once acked, proving
// the failed stamps consumed nothing on either link.
func TestShardBoundaryBackpressureIsolation(t *testing.T) {
	const nShards = 2
	links := [nShards]*SendLink{}
	socks := [nShards]*bytes.Buffer{}
	writers := [nShards]*FrameWriter{}
	for s := range links {
		links[s] = NewSendLink()
		links[s].SetLimit(2)
		socks[s] = &bytes.Buffer{}
		writers[s] = NewFrameWriter(socks[s])
		if err := writers[s].SetCodec(CodecBinary); err != nil {
			t.Fatal(err)
		}
		writers[s].EnableBatching(8, 1<<20)
	}
	// Destination nodes 0..3 shard by parity, as shardOf does in netrun.
	send := func(to int) (Envelope, error) {
		s := to % nShards
		e, err := links[s].Stamp(Envelope{Type: TypeCoreOk, From: 9, To: to})
		if err != nil {
			return Envelope{}, err
		}
		return e, writers[s].Send(&e)
	}

	// Fill shard 0 (nodes 0 and 2) to its cap, then overflow it twice.
	for _, to := range []int{0, 2} {
		if _, err := send(to); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := send(0); !errors.Is(err, ErrSendBufferFull) {
			t.Fatalf("overflow %d on shard 0: err = %v, want ErrSendBufferFull", i, err)
		}
	}

	// Shard 1 is an independent link: its stream starts at 1 and keeps
	// flowing while its neighbor is wedged.
	for i := 1; i <= 2; i++ {
		e, err := send(1)
		if err != nil {
			t.Fatalf("shard 1 send %d: %v", i, err)
		}
		if e.Seq != int64(i) {
			t.Fatalf("shard 1 seq = %d, want %d", e.Seq, i)
		}
	}
	if len(links[0].Window()) != 2 || len(links[1].Window()) != 2 {
		t.Fatalf("pending = %d/%d, want 2/2", len(links[0].Window()), len(links[1].Window()))
	}

	// Ack shard 0 and resume: the two failed stamps left no hole, so the
	// next frame is seq 3 on that link.
	links[0].Ack(2)
	e, err := send(2)
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 3 {
		t.Fatalf("shard 0 post-ack seq = %d, want 3", e.Seq)
	}

	// Each shard's receiver reassembles its own gapless stream.
	for s := range links {
		if err := writers[s].Flush(); err != nil {
			t.Fatal(err)
		}
		rl := NewRecvLink()
		for _, e := range drain(t, socks[s]) {
			if _, dup, err := rl.Accept(e); err != nil || dup {
				t.Fatalf("shard %d Accept(seq %d): dup=%v err=%v", s, e.Seq, dup, err)
			}
		}
		want := int64(3 - s) // shard 0 sent 3 frames, shard 1 sent 2
		if rl.CumAck() != want {
			t.Fatalf("shard %d cumack = %d, want %d", s, rl.CumAck(), want)
		}
	}
}
