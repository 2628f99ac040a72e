// Sharded relays: the hub's socket plane. Each relay owns one listener and
// the read loops of the connections it accepted; everything a relay decodes
// funnels into the hub's single route loop, which owns all routing, fault,
// and accounting decisions. Sharding therefore scales accept/read/decode
// across cores without perturbing a single routing decision — the
// determinism argument DESIGN.md §12 spells out.
package netrun

import (
	"errors"
	"net"
	"sync"

	"github.com/discsp/discsp/internal/wire"
)

// relay is one shard of the hub's listening plane.
type relay struct {
	index int
	ln    net.Listener
}

// shardOf is the consistent agent→shard assignment shared by the hub, the
// in-process nodes, and external workers (cmd/dcspnode): node v belongs to
// shard v mod nShards.
func shardOf(v, nShards int) int {
	if nShards <= 1 {
		return 0
	}
	return v % nShards
}

// relayConn is the hub's handle on one accepted connection. The read side
// (fr) belongs to the shard's read-loop goroutine; the write side (fw) and
// the node/dirty bookkeeping belong to the route loop, which serializes
// every write — so neither side needs a lock.
type relayConn struct {
	conn  net.Conn
	shard int
	fw    *wire.FrameWriter
	fr    *wire.FrameReader
	node  int  // registered node id; -1 until the hello is processed
	dirty bool // buffered writes awaiting the route loop's idle flush
	crcOn bool // CRC32C trailer negotiated on this connection
	// seq is the accept order across every relay: a node's later socket
	// supersedes its earlier ones, whatever order their frames arrive in.
	seq int64
}

// acceptLoop accepts connections on one relay until its listener closes or
// Run tears the sockets down, spawning a read loop per connection.
func (h *hub) acceptLoop(r *relay, readWG *sync.WaitGroup) {
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed at shutdown
		}
		rc := &relayConn{
			conn:  conn,
			shard: r.index,
			fw:    wire.NewFrameWriter(conn),
			fr:    wire.NewFrameReader(conn),
			node:  -1,
		}
		h.connMu.Lock()
		if h.connsClosed {
			// Run already swept the sockets: nobody would close this one.
			h.connMu.Unlock()
			conn.Close()
			return
		}
		h.acceptSeq++
		rc.seq = h.acceptSeq
		h.allConns = append(h.allConns, rc)
		h.connMu.Unlock()
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			h.readLoop(rc)
		}()
	}
}

// readLoop decodes frames from one connection into the hub channel. All
// frames — including hello — go through the channel so that connection
// registration happens on the single-threaded route loop. The one thing
// decided here is codec negotiation: the reader must switch before the next
// read, and the node sends nothing after its hello until the welcome
// arrives, so the switch point is unambiguous. The negotiated name rides to
// the route loop on the hello's Codec field.
func (h *hub) readLoop(rc *relayConn) {
	for {
		env, err := rc.fr.Next()
		// A checksum-rejected frame is consumed and counted; the stream
		// stays aligned, and the route loop has the node replay it.
		rejected := errors.Is(err, wire.ErrCorruptFrame)
		if err != nil && !rejected {
			return // node-side close or framing damage: drop the connection
		}
		if env.Type == wire.TypeHello {
			neg := negotiate(h.codec, env.Codec)
			rc.fr.SetCodec(neg)
			if h.checksum && env.Crc && neg == wire.CodecBinary {
				// The node sends nothing after its hello until the welcome
				// confirms the trailer, so arming the reader here is safe —
				// exactly like the codec switch above.
				rc.fr.EnableChecksum()
			}
			env.Codec = neg.String()
		}
		// Frames outlive the next Next call (queues, delays, checkpoints):
		// unalias the reader's scratch.
		env.Detach()
		select {
		case h.frames <- inFrame{env: env, src: rc, rejected: rejected}:
		case <-h.stop:
			return
		}
	}
}

// negotiate picks one connection's codec: binary unless either side asks
// for the JSON fallback. An unrecognized request also falls back to JSON —
// the handshake already proved the peer speaks it.
func negotiate(hub wire.Codec, requested string) wire.Codec {
	req, err := wire.ParseCodec(requested)
	if err != nil || hub == wire.CodecJSON || req == wire.CodecJSON {
		return wire.CodecJSON
	}
	return wire.CodecBinary
}
