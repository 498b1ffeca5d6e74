package transport

import (
	"errors"
	"fmt"
	"slices"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/vr"
)

// ReceiverConfig parameterises the receive side of a connection.
type ReceiverConfig struct {
	// Layout must match the sender's invariant layout.
	Layout errdet.Layout
	// MTU bounds control datagrams.
	MTU int
	// OnFrame, when set, is called once per completed external PDU
	// (ALF frame) with the frame's bytes.
	OnFrame func(xid uint32, data []byte)
	// OnTPDU, when set, is called each time a TPDU goes from pending to
	// a final verdict: once per TPDU on a clean path, and again when a
	// TPDU that failed is rebuilt from a retransmission (so a
	// VerdictEDMismatch may be followed by VerdictOK) or a retired
	// TPDU's duplicate is re-verified.
	OnTPDU func(tid uint32, v errdet.Verdict)
	// Repair enables single-symbol error correction: a TPDU failing
	// the parity compare is repaired in place when the WSC-2 syndrome
	// identifies exactly one corrupted data symbol, avoiding a
	// retransmission round trip (extension; see errdet.Repair).
	Repair bool
	// OverlapPolicy selects what T-level virtual reassembly does with a
	// duplicate interval whose bytes differ from those already placed
	// (a conflicting overlap — the overlap-smuggling vector). The zero
	// value vr.FirstWins keeps the first-placed bytes (the paper's
	// Section 3.3 duplicate rule); vr.LastWins replaces bytes and
	// parity contribution together; vr.RejectPDU abandons the TPDU so
	// retransmissions rebuild it; vr.RejectConnection makes HandleChunk
	// return ErrConnectionRejected and the receiver refuse all further
	// input.
	OverlapPolicy vr.Policy
	// ReapAfter, when > 0, bounds the memory a lossy or dead peer can
	// pin in this receiver: an incomplete TPDU that makes no
	// reassembly progress for ReapAfter consecutive Poll rounds has
	// its verification state dropped entirely (the §3.3 buffer-lock-up
	// discussion applied to our own receiver). Data arriving later
	// rebuilds the TPDU from scratch via normal retransmission. 0
	// disables reaping.
	ReapAfter int
	// RetireVerified, when > 0, bounds the state of VERIFIED TPDUs the
	// way ReapAfter bounds incomplete ones: the receiver keeps the
	// most recent RetireVerified acknowledged TPDUs and retires older
	// ones — their verification state is recycled (not freed, so the
	// steady receive path allocates nothing) and, whenever the retiring
	// TPDU is the oldest data held, the delivered stream prefix is
	// trimmed in place. With retirement active Stream() returns only
	// the un-trimmed suffix (StreamBase says where it starts) and
	// OnFrame payloads are valid only during the callback. A duplicate
	// of a retired TPDU (a retransmission after a lost ACK) is simply
	// re-verified from scratch and re-acknowledged. 0 disables
	// retirement and keeps every TPDU's state for the connection's
	// lifetime (the historical behaviour).
	RetireVerified int

	// Tel receives the receiver's runtime metrics and lifecycle
	// events. The zero Sink disables instrumentation at no cost.
	Tel telemetry.Sink
}

// A Receiver is the receive side of one chunk connection: it places
// data immediately (no reassembly buffer), verifies each TPDU
// end-to-end, acknowledges verified TPDUs, and NACKs gaps.
type Receiver struct {
	cfg ReceiverConfig
	out func(datagram []byte)
	ed  *errdet.Receiver

	cid      uint32 // labels control: the C.ID of the first chunk fed
	labelled bool   // cid is set
	elemSize uint16
	opened   bool
	closed   bool
	rejected bool // vr.RejectConnection tripped; all input refused
	finalCSN uint64

	// stream is the application address space, placed by C.SN.
	// streamBase is the C.SN element offset of stream[0]: 0 until
	// retirement (RetireVerified) starts trimming delivered prefixes.
	stream     []byte
	streamBase uint64

	repaired  int
	reaped    int
	verified  int                // TPDUs acknowledged (survives retirement)
	pending   int                // records without a final verdict (NeedsPoll)
	recs      map[uint32]recvRec // T.ID -> the TPDU's transport state
	delivered map[uint32]bool    // X.IDs whose frame OnFrame has seen

	// ackRing is the FIFO of acknowledged TPDUs awaiting retirement
	// (RetireVerified > 0); ringHead indexes its oldest live entry.
	ackRing  []uint32
	ringHead int

	round int // Poll rounds elapsed (telemetry timeline)

	pack packet.Packer
	tel  recvTel

	// Hot-path scratch, reused across calls so the steady receive path
	// allocates nothing: dec is HandlePacket's envelope decode target,
	// ctrl and ackBuf build the single-ACK control emission, pollTids
	// is Poll's sorted-scan buffer.
	dec      packet.Packet
	ctrl     []chunk.Chunk
	ackBuf   []byte
	pollTids []uint32
}

// recvTel bundles the receiver's pre-resolved instruments. With a
// disabled Sink every field is nil and every use is a no-op branch.
type recvTel struct {
	chunks    *telemetry.Counter   // data chunks ingested
	placed    *telemetry.Counter   // payload bytes placed (fresh only)
	verified  *telemetry.Counter   // TPDUs with VerdictOK
	failed    *telemetry.Counter   // TPDUs with a non-OK final verdict
	repaired  *telemetry.Counter   // TPDUs fixed by WSC-2 repair
	reapedC   *telemetry.Counter   // stale TPDUs dropped
	nacks     *telemetry.Counter   // NACK chunks emitted
	chunkLen  *telemetry.Histogram // data chunk sizes, elements
	intervals *telemetry.Histogram // TPDU interval-set size per ingest
	polls     *telemetry.Histogram // Poll rounds from first chunk to verdict
	ring      *telemetry.Ring
}

func newRecvTel(t telemetry.Sink) recvTel {
	return recvTel{
		chunks:    t.Counter("chunks_received"),
		placed:    t.Counter("bytes_placed"),
		verified:  t.Counter("tpdus_verified"),
		failed:    t.Counter("tpdus_failed"),
		repaired:  t.Counter("tpdus_repaired"),
		reapedC:   t.Counter("tpdus_reaped"),
		nacks:     t.Counter("nacks_sent"),
		chunkLen:  t.Histogram("chunk_elems"),
		intervals: t.Histogram("reassembly_intervals"),
		polls:     t.Histogram("reassembly_polls"),
		ring:      t.Ring,
	}
}

// recvRec is the receiver's whole state for one tracked TPDU: a
// record is created by the TPDU's first chunk and removed by one delete
// when the TPDU retires or is reaped. It holds no capacity, so it is a
// plain map value. A record is pending until errdet reaches a verdict,
// then final; a final TPDU that errdet rebuilds (a retransmission after
// a WSC-2 mismatch) is pending again.
type recvRec struct {
	fp      uint64 // reassembly fingerprint at the last Poll (when haveFP)
	first   int    // Poll round the TPDU last became pending
	stale   int    // polls since the last arrival (reaping)
	stalled uint8  // consecutive polls without progress (stall reset)
	haveFP  bool
	final   bool // verdict reported
	acked   bool // verified OK and acknowledged
}

// NewReceiver returns a Receiver; control datagrams (ACK/NACK packets)
// go to out.
func NewReceiver(cfg ReceiverConfig, out func([]byte)) (*Receiver, error) {
	if cfg.Layout.DataSymbols == 0 {
		cfg.Layout = errdet.DefaultLayout()
	}
	if cfg.MTU == 0 {
		cfg.MTU = 1400
	}
	ed, err := errdet.NewReceiver(cfg.Layout)
	if err != nil {
		return nil, err
	}
	ed.SetTelemetry(cfg.Tel)
	r := &Receiver{
		cfg:       cfg,
		out:       out,
		ed:        ed,
		recs:      make(map[uint32]recvRec),
		delivered: make(map[uint32]bool),
		pack:      packet.Packer{MTU: cfg.MTU, Buffers: new(packet.BufferPool)},
		tel:       newRecvTel(cfg.Tel),
		ackBuf:    make([]byte, 0, 4),
	}
	// The stream IS the prior-bytes view conflict detection needs:
	// virtual reassembly keeps no payload, so the placer lends its own.
	ed.SetOverlapPolicy(cfg.OverlapPolicy, r.priorBytes)
	return r, nil
}

// ErrConnectionRejected reports a conflicting overlap under
// vr.RejectConnection: the connection is dead and the caller (e.g. the
// core server) should tear it down.
var ErrConnectionRejected = fmt.Errorf("transport: conflicting overlap: connection rejected")

// Rejected reports whether the vr.RejectConnection policy tripped.
func (r *Receiver) Rejected() bool { return r.rejected }

// priorBytes returns the placed stream bytes for connection-stream
// elements [iv.Lo, iv.Hi), or nil when the range was never placed (or
// has been retired and trimmed away).
//
//lint:hot
func (r *Receiver) priorBytes(iv vr.Interval) []byte {
	if iv.Lo < r.streamBase {
		return nil
	}
	es := uint64(r.size())
	lo, hi := (iv.Lo-r.streamBase)*es, (iv.Hi-r.streamBase)*es
	if hi > uint64(len(r.stream)) || lo > hi {
		return nil
	}
	return r.stream[lo:hi]
}

// HandlePacket ingests one received datagram. The decode scratch is
// swapped out for the duration of the call, so a reentrant
// HandlePacket (an out callback looping a datagram straight back)
// stays correct — it just pays a fresh decode allocation.
//
//lint:hot
func (r *Receiver) HandlePacket(data []byte) error {
	dec := r.dec
	r.dec = packet.Packet{}
	err := packet.DecodeInto(data, &dec)
	if err == nil {
		for i := range dec.Chunks {
			if err = r.HandleChunk(&dec.Chunks[i]); err != nil {
				break
			}
		}
	}
	r.dec = dec
	return err
}

// HandleChunk ingests one chunk. Callers that demultiplex a datagram
// across several receivers (e.g. a multi-peer server keying connections
// by C.ID and source address) decode the packet once and route each
// chunk here; single-connection callers use HandlePacket.
//
//lint:hot
func (r *Receiver) HandleChunk(c *chunk.Chunk) error {
	if r.rejected {
		return ErrConnectionRejected
	}
	if !r.labelled {
		// Control is labelled with the connection's C.ID as the chunks
		// carry it (a demultiplexing caller feeds one C.ID only), not
		// taken from the open signal: that may be lost, reordered or
		// forged, and shared control envelopes are demultiplexed by
		// this label.
		r.cid, r.labelled = c.C.ID, true
	}
	switch c.Type {
	case chunk.TypeSignal:
		sig, err := ParseSignal(c)
		if err != nil {
			return err
		}
		if sig.Open {
			r.elemSize = sig.ElemSize
			r.opened = true
		} else {
			r.closed = true
			r.finalCSN = sig.CSN
			// Acknowledge the close signal (repeated closes re-ACK:
			// a repeat means our previous ACK was lost).
			r.emitAck(CloseAckTID)
		}
		return nil
	case chunk.TypeData:
		r.tel.chunks.Inc()
		r.tel.chunkLen.Observe(int64(c.Len))
		r.tel.ring.Record(telemetry.EvReceived, c.C.ID, c.T.ID, c.T.SN, int64(c.Len))
		// Verification first: only FRESH, check-accepted element
		// ranges are placed, so a corrupted duplicate can never
		// overwrite good data (Section 3.3's duplicate rule) — except
		// under vr.LastWins, where the verifier hands back the
		// conflicting intervals to overwrite after swapping their
		// parity contribution.
		fresh, replace, err := r.ed.IngestPlaced(c)
		if err != nil {
			if errors.Is(err, vr.ErrConflictingData) {
				// The rejection is already a finding (and counted);
				// only vr.RejectConnection escalates past this chunk.
				if r.cfg.OverlapPolicy == vr.RejectConnection {
					r.rejected = true
					return ErrConnectionRejected
				}
				r.track(c.T.ID)
				return nil
			}
			return err
		}
		for _, iv := range fresh {
			r.place(c, iv.Lo, iv.Hi)
			r.tel.placed.Add(int64((iv.Hi - iv.Lo) * uint64(c.Size)))
			r.tel.ring.Record(telemetry.EvPlaced, c.C.ID, c.T.ID, iv.Lo, int64(iv.Hi-iv.Lo))
		}
		for _, iv := range replace {
			r.place(c, iv.Lo, iv.Hi)
			r.tel.ring.Record(telemetry.EvPlaced, c.C.ID, c.T.ID, iv.Lo, int64(iv.Hi-iv.Lo))
		}
		r.tel.intervals.Observe(int64(r.ed.Fragments(c.T.ID)))
		r.track(c.T.ID)
		r.deliverFrames(c.X.ID)
		return nil
	case chunk.TypeED:
		if err := r.ed.Ingest(c); err != nil {
			return err
		}
		r.track(c.T.ID)
		return nil
	case chunk.TypeAck, chunk.TypeNack:
		return nil // peer's control towards its own sender role
	default:
		return fmt.Errorf("transport: unexpected chunk type %v", c.Type) //lint:allow hotalloc cold error path: fmt boxes its operands
	}
}

// place writes the chunk's elements [lo, hi) (T.SN space) at their
// connection-stream positions — immediate placement, the
// latency/throughput win of Section 1. Elements below streamBase are
// duplicates of already-retired data and are dropped.
//
//lint:hot
func (r *Receiver) place(c *chunk.Chunk, lo, hi uint64) {
	es := uint64(c.Size)
	abs := c.C.SN + (lo - c.T.SN)
	if abs < r.streamBase {
		return
	}
	off := (lo - c.T.SN) * es
	n := (hi - lo) * es
	dst := (abs - r.streamBase) * es
	if dst+n > uint64(len(r.stream)) {
		if dst+n <= uint64(cap(r.stream)) {
			// Room left behind by a retirement trim: re-extend in
			// place, zeroing the reclaimed tail (it holds stale bytes
			// from the copy-down).
			old := len(r.stream)
			r.stream = r.stream[:dst+n]
			clear(r.stream[old:])
		} else {
			// Grow geometrically: exact-size growth would reallocate
			// (and zero) the whole stream once per arriving datagram.
			newCap := max(2*uint64(cap(r.stream)), dst+n)
			grown := make([]byte, dst+n, newCap) //lint:allow hotalloc stream growth; retirement (RetireVerified) caps it in steady state
			copy(grown, r.stream)
			r.stream = grown
		}
	}
	copy(r.stream[dst:dst+n], c.Payload[off:off+n])
}

// track updates TPDU tid's record after errdet has taken one of its
// chunks. An arrival clears staleness. A TPDU is pending from its first
// chunk until errdet reaches a verdict; that transition is reported
// once (repair, OnTPDU, verdict telemetry). A verified TPDU is
// acknowledged on first completion AND on every later duplicate: a
// duplicate means the sender retransmitted, so the previous ACK was
// lost (the ACK may be piggybacked by the packer with other control,
// Appendix A).
//
//lint:hot
func (r *Receiver) track(tid uint32) {
	rec, ok := r.recs[tid]
	v := r.ed.Verdict(tid)
	if !ok || (rec.final && v == errdet.VerdictPending) {
		// A new TPDU, or a failed one errdet is rebuilding from a
		// retransmission: pending from this round.
		rec = recvRec{first: r.round}
		r.pending++
	}
	rec.stale = 0
	report := v != errdet.VerdictPending && !rec.final
	if report {
		if v == errdet.VerdictEDMismatch && r.cfg.Repair {
			if cor, ok := r.ed.Repair(tid); ok {
				cor.Apply(r.stream, r.size())
				r.repaired++
				r.tel.repaired.Inc()
				v = r.ed.Verdict(tid)
			}
		}
		rec.final = true
		r.pending--
	}
	newAck := v == errdet.VerdictOK && !rec.acked
	rec.acked = rec.acked || newAck
	// Written back before any callback runs, so a callback that feeds
	// this receiver again sees the current record.
	r.recs[tid] = rec
	if report {
		if r.cfg.OnTPDU != nil {
			r.cfg.OnTPDU(tid, v)
		}
		r.tel.polls.Observe(int64(r.round - rec.first))
		if v == errdet.VerdictOK {
			r.tel.verified.Inc()
			r.tel.ring.Record(telemetry.EvComplete, r.cid, tid, uint64(tid), 0)
		} else {
			r.tel.failed.Inc()
		}
	}
	if newAck {
		r.verified++
		if r.cfg.RetireVerified > 0 {
			r.ackRing = append(r.ackRing, tid)
			for len(r.ackRing)-r.ringHead > r.cfg.RetireVerified {
				old := r.ackRing[r.ringHead]
				r.ackRing[r.ringHead] = 0
				r.ringHead++
				r.retire(old)
			}
			// Compact the ring once the dead prefix dominates, so
			// the FIFO stays O(RetireVerified) without per-ACK
			// reallocation.
			if r.ringHead >= 64 && r.ringHead*2 >= len(r.ackRing) {
				n := copy(r.ackRing, r.ackRing[r.ringHead:])
				r.ackRing = r.ackRing[:n]
				r.ringHead = 0
			}
		}
	}
	if v == errdet.VerdictOK {
		r.emitAck(tid)
	}
}

// retire drops every trace of a verified, acknowledged TPDU, recycling
// its verification state, and trims the delivered stream prefix when
// tid is the oldest data held (out-of-order verification just delays
// the trim until the gap retires). A retransmission of a retired TPDU
// arriving later (lost ACK) is re-verified from scratch; its placement
// below streamBase is dropped by place.
//
//lint:hot
func (r *Receiver) retire(tid uint32) {
	if lo, hi, ok := r.ed.TPDUExtent(tid); ok && lo == r.streamBase {
		n := (hi - lo) * uint64(r.size())
		if n <= uint64(len(r.stream)) {
			rem := copy(r.stream, r.stream[n:])
			r.stream = r.stream[:rem]
			r.streamBase = hi
		}
	}
	r.ed.Retire(tid)
	delete(r.recs, tid)
}

// size returns the connection element size (signaled, defaulting to 4).
func (r *Receiver) size() uint16 {
	if r.elemSize == 0 {
		return 4
	}
	return r.elemSize
}

// deliverFrames fires OnFrame for completed external PDUs, at the
// stream position errdet verified (XExtent), so a chunk errdet rejected
// cannot move a frame. Under RetireVerified the frame's tracking state
// is retired right after completion (delivered or not), so per-frame
// state is recycled in step with per-TPDU state.
//
//lint:hot
func (r *Receiver) deliverFrames(xid uint32) {
	if !r.ed.XComplete(xid) {
		return
	}
	if r.cfg.OnFrame != nil && !r.delivered[xid] {
		r.delivered[xid] = true
		// A complete external PDU always has a known extent.
		lo, hi, _ := r.ed.XExtent(xid)
		if lo >= r.streamBase {
			es := uint64(r.size())
			lo, hi = (lo-r.streamBase)*es, (hi-r.streamBase)*es
			if hi <= uint64(len(r.stream)) {
				r.cfg.OnFrame(xid, r.stream[lo:hi])
			}
		}
	}
	if r.cfg.RetireVerified > 0 {
		r.ed.RetireX(xid)
		delete(r.delivered, xid)
	}
}

// Poll emits NACKs for every known-but-incomplete TPDU: missing data
// intervals (plus an open-ended tail request while the TPDU's end is
// unknown), or an empty interval list when only the ED chunk is
// outstanding. Call once per pump round.
func (r *Receiver) Poll() {
	r.round++
	var ctrl []chunk.Chunk
	// Sorted scan: NACK emission order decides how control chunks pack
	// into datagrams, so map iteration order would break seeded-run
	// determinism. The tid buffer is receiver-owned scratch and
	// slices.Sort needs no closure, keeping quiescent polls
	// allocation-free.
	tids := r.pollTids[:0]
	for tid := range r.recs {
		tids = append(tids, tid)
	}
	slices.Sort(tids)
	r.pollTids = tids
	for _, tid := range tids {
		rec := r.recs[tid]
		if rec.final {
			continue
		}
		miss := r.ed.Missing(tid)
		haveEnd, high := r.ed.TPDUStatus(tid)
		// Progress suppression: while data for this TPDU is still
		// flowing in, hold the NACK — request retransmission only
		// when a poll interval passes with no change.
		fp := high<<16 ^ uint64(len(miss))<<1
		if haveEnd {
			fp |= 1
		}
		// Reaping: an incomplete TPDU with no chunk arrivals for
		// ReapAfter polls (track zeroes stale on every arrival) is
		// given up on entirely — its verification state is dropped so
		// a lossy or dead peer cannot pin receiver memory without
		// bound. A retransmission arriving later rebuilds it from
		// scratch.
		rec.stale++
		if r.cfg.ReapAfter > 0 && rec.stale >= r.cfg.ReapAfter {
			r.pending--
			r.ed.ResetTPDU(tid)
			delete(r.recs, tid)
			r.reaped++
			r.tel.reapedC.Inc()
			r.tel.ring.Record(telemetry.EvReaped, r.cid, tid, uint64(tid), 0)
			continue
		}
		switch {
		case !rec.haveFP || rec.fp != fp:
			rec.fp, rec.haveFP, rec.stalled = fp, true, 0
		case rec.stalled+1 >= 4:
			// Stall escalation: a TPDU that keeps receiving
			// retransmissions without converging had its verification
			// state poisoned (e.g. a corrupted first chunk seeded wrong
			// consistency baselines). Reset it and rebuild from the next
			// retransmission.
			rec.stalled, rec.haveFP = 0, false
			r.ed.ResetTPDU(tid)
			ctrl = append(ctrl, Nack(r.cid, tid, []vr.Interval{{Lo: 0, Hi: ^uint64(0)}}))
		default:
			rec.stalled++
			if !haveEnd {
				// The T.ST chunk is lost: ask for everything from the
				// highest element seen onward; the sender clips the
				// request to the TPDU's real extent.
				miss = append(miss, vr.Interval{Lo: high, Hi: ^uint64(0)})
			}
			ctrl = append(ctrl, Nack(r.cid, tid, miss))
		}
		r.recs[tid] = rec
	}
	if len(ctrl) > 0 {
		r.tel.nacks.Add(int64(len(ctrl)))
		r.emit(ctrl)
	}
}

//lint:hot
func (r *Receiver) emit(chs []chunk.Chunk) {
	datagrams, err := r.pack.Encode(chs)
	if err != nil {
		return
	}
	for _, d := range datagrams {
		r.out(d)
	}
}

// emitAck emits a single ACK chunk through the receiver's reusable
// control scratch: the one-chunk slice and the 4-byte ACK payload are
// receiver fields, re-filled per call, so the verify → ACK steady path
// allocates nothing.
//
//lint:hot
func (r *Receiver) emitAck(tid uint32) {
	r.ctrl = append(r.ctrl[:0], AckWith(r.cid, tid, r.ackBuf))
	r.emit(r.ctrl)
}

// Recycle returns a control datagram previously handed to out to the
// receiver's buffer pool. Opt-in, exactly like Sender.Recycle: callers
// that copy or retain datagrams simply never call it.
//
//lint:hot
func (r *Receiver) Recycle(d []byte) { r.pack.Buffers.Put(d) }

// Stream returns the application byte stream placed so far — all of it
// with retirement off, the un-trimmed suffix starting at element
// StreamBase otherwise.
func (r *Receiver) Stream() []byte { return r.stream }

// StreamBase returns the connection-stream element offset of
// Stream()[0]: how many elements retirement has trimmed. Always 0 with
// RetireVerified unset.
func (r *Receiver) StreamBase() uint64 { return r.streamBase }

// Opened and Closed report signaling state.
func (r *Receiver) Opened() bool { return r.opened }

// Closed reports whether the close signal has arrived.
func (r *Receiver) Closed() bool { return r.closed }

// FinalCSN returns the element SN past the last data element, valid
// once Closed.
func (r *Receiver) FinalCSN() uint64 { return r.finalCSN }

// Verified reports whether TPDU tid verified OK (and its state is
// still held: a retired TPDU reports false).
func (r *Receiver) Verified(tid uint32) bool { return r.recs[tid].acked }

// VerifiedCount returns how many TPDUs verified OK, including ones
// since retired.
func (r *Receiver) VerifiedCount() int { return r.verified }

// Findings exposes the error detection findings (for experiments).
func (r *Receiver) Findings() []errdet.Finding { return r.ed.Findings() }

// Repaired returns the number of TPDUs fixed by single-symbol error
// correction (only nonzero when ReceiverConfig.Repair is set).
func (r *Receiver) Repaired() int { return r.repaired }

// Reaped returns the number of stale incomplete TPDUs whose state was
// dropped (only nonzero when ReceiverConfig.ReapAfter is set).
func (r *Receiver) Reaped() int { return r.reaped }

// NeedsPoll reports whether the receiver has timer-driven work left:
// at least one tracked TPDU awaits its final verdict, so Poll rounds
// must keep running (NACK emission, stall escalation, reaping). A
// receiver with no pending verdicts is quiescent — a timer-wheel
// caller (internal/shard) disarms its poll timer instead of scanning
// it every tick, and re-arms on the next arrival.
func (r *Receiver) NeedsPoll() bool { return r.pending > 0 }

// PendingTPDUs returns the number of TPDUs currently holding receive
// state without a final verdict — the quantity reaping bounds.
func (r *Receiver) PendingTPDUs() int { return r.pending }
