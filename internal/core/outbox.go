package core

import (
	"encoding/binary"
	"net"
	"net/netip"

	"chunks/internal/batch"
	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
)

// outboxSlots is how many control envelopes an outbox holds before it
// must flush. One envelope carries ~28 ACKs at the default MTU, so a
// 32-datagram read burst rarely comes near it.
const outboxSlots = 32

// An outbox collects the control chunks (ACK/NACK) one ingestion
// context produces and sends them as per-peer envelopes — the paper's
// "packets are envelopes that carry integral numbers of chunks" (§2)
// applied to the reverse path: ACKs of any number of connections to
// one peer share a datagram (Appendix A's free piggybacking). The
// receivers' out callbacks fill it under the shard locks; its owner
// flushes it once per read burst, tick or InjectBatch, after the locks
// are released, with one sendmmsg. Storage is fixed at construction: when
// it fills, add flushes in place (counted as egress_early_flush)
// rather than growing. An outbox belongs to one goroutine at a time.
type outbox struct {
	*egress
	w    *batch.Writer
	slab []byte // envelope i occupies slab[i*mtu : i*mtu+lens[i]]

	n      int // envelopes open
	lens   []int
	to     []netip.AddrPort
	peers  []*net.UDPAddr // ControlOut's view of to
	dgrams [][]byte       // flush scratch
	nchunk int64          // control chunks added since the last flush
	dec    chunk.Chunk    // chunk-count scratch
}

// egress is what the outboxes share of their server: the socket, the
// MTU, the ControlOut hook and the egress counters. Outboxes hold this
// rather than the Server, so a pooled outbox does not keep a shut-down
// server's connections reachable.
type egress struct {
	sock       *net.UDPConn
	mtu        int
	controlOut func(datagram []byte, peer *net.UDPAddr)

	envelopes *telemetry.Counter // ctrl_envelopes_out
	chunks    *telemetry.Counter // ctrl_chunks_out
	syscalls  *telemetry.Counter // egress_syscalls
	early     *telemetry.Counter // egress_early_flush
}

func newOutbox(eg *egress) *outbox {
	return &outbox{
		egress: eg,
		w:      batch.NewWriter(eg.sock, outboxSlots),
		slab:   make([]byte, outboxSlots*eg.mtu),
		lens:   make([]int, outboxSlots),
		to:     make([]netip.AddrPort, outboxSlots),
		peers:  make([]*net.UDPAddr, outboxSlots),
		dgrams: make([][]byte, outboxSlots),
	}
}

// add copies the chunks of one control datagram (its bytes past the
// envelope header) into the open envelope for to, or into a new one
// when that envelope would exceed the MTU.
//
//lint:hot
func (o *outbox) add(chunks []byte, to netip.AddrPort, peer *net.UDPAddr) {
	for off := 0; off < len(chunks); o.nchunk++ {
		n, err := o.dec.DecodeFromBytes(chunks[off:])
		if err != nil {
			break
		}
		off += n
	}
	i := o.n - 1
	for i >= 0 && o.to[i] != to {
		i--
	}
	if i < 0 || o.lens[i]+len(chunks) > o.mtu {
		if o.n == len(o.lens) {
			o.early.Inc()
			o.flush()
		}
		i = o.n
		o.n++
		o.lens[i], o.to[i], o.peers[i] = packet.HeaderSize, to, peer
	}
	base := i * o.mtu
	o.lens[i] += copy(o.slab[base+o.lens[i]:base+o.mtu], chunks)
}

// flush sends every open envelope — through Config.ControlOut when
// set, else with one sendmmsg — and empties the outbox.
//
//lint:hot
func (o *outbox) flush() {
	if o.n == 0 {
		return
	}
	for i := 0; i < o.n; i++ {
		e := o.slab[i*o.mtu : i*o.mtu+o.lens[i]]
		e[0], e[1] = packet.Magic, packet.Version
		binary.BigEndian.PutUint16(e[2:packet.HeaderSize], uint16(len(e)))
		o.dgrams[i] = e
	}
	if co := o.controlOut; co != nil {
		for i := 0; i < o.n; i++ {
			co(o.dgrams[i], o.peers[i])
		}
	} else {
		// Best-effort datagram send; loss is the protocol's problem.
		calls := o.w.Syscalls()
		_ = o.w.WriteTo(o.dgrams[:o.n], o.to[:o.n])
		o.syscalls.Add(o.w.Syscalls() - calls)
	}
	o.envelopes.Add(int64(o.n))
	o.chunks.Add(o.nchunk)
	for i := 0; i < o.n; i++ {
		o.dgrams[i], o.peers[i] = nil, nil
	}
	o.n, o.nchunk = 0, 0
}
