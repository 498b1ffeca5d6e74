package errdet

import (
	"errors"
	"fmt"
	"sort"

	"chunks/internal/chunk"
	"chunks/internal/telemetry"
	"chunks/internal/vr"
	"chunks/internal/wsc"
)

// A Finding is one detected anomaly, classified by the Table 1
// mechanism that caught it.
type Finding struct {
	Class Verdict
	TID   uint32 // TPDU involved, when known
	Err   error
}

func (f Finding) String() string { return fmt.Sprintf("%v (TPDU %d): %v", f.Class, f.TID, f.Err) }

// tpduState is the receive-side verification state of one TPDU.
type tpduState struct {
	blk       blockAccumulator
	t         vr.PDU
	size      uint16
	cid       uint32
	haveMeta  bool
	delta     uint64 // C.SN - T.SN, constant across the TPDU's chunks
	cst       bool   // C.ST observed on the TPDU boundary element
	want      wsc.Parity
	haveWant  bool
	finalized bool
	verdict   Verdict
}

// reset returns the state to the fresh-TPDU condition, keeping the
// virtual-reassembly interval capacity — the recycling half of the
// freelist that makes long-running receivers allocation-free per TPDU.
func (t *tpduState) reset(layout Layout) {
	t.t.Reset()
	t.blk = blockAccumulator{layout: layout}
	t.size, t.cid, t.haveMeta = 0, 0, false
	t.delta, t.cst = 0, false
	t.want, t.haveWant = wsc.Parity{}, false
	t.finalized, t.verdict = false, VerdictPending
}

// xState is the connection-scope verification state of one external
// PDU (external PDUs may span TPDUs, so they live beside, not inside,
// tpduState).
type xState struct {
	pdu       vr.PDU
	delta     uint64 // C.SN - X.SN, constant across the external PDU's chunks
	haveDelta bool
}

// A Receiver performs incremental end-to-end verification for one
// connection: chunks are ingested in ANY order, exactly as they fall
// out of arriving packets, with no reordering or physical reassembly.
// Each TPDU's parity is accumulated as fresh data arrives; when the
// TPDU's virtual reassembly completes and its ED chunk is in hand, the
// parities are compared.
type Receiver struct {
	layout   Layout
	tpdus    map[uint32]*tpduState
	xs       map[uint32]*xState
	findings []Finding
	// free and xfree hold retired state records for reuse (see Retire
	// and RetireX): a steady verify → ack → retire cycle allocates no
	// per-TPDU or per-frame state.
	free  []*tpduState
	xfree []*xState

	// policy is the conflicting-overlap policy applied at T-level
	// virtual reassembly; prior supplies the previously accepted bytes
	// for an element interval in connection-stream (C.SN) space.
	// Conflict detection is active only when prior is set — virtual
	// reassembly stores no payload, so the payload owner must lend its
	// view (Section 3.3).
	policy vr.Policy
	prior  vr.View
	// shifted is the T.SN → C.SN shifting adapter over prior, built
	// once in SetOverlapPolicy so the per-chunk hot path does not
	// allocate a fresh closure; viewDelta is the shift it applies.
	shifted   vr.View
	viewDelta uint64

	// Checksum-kernel instruments (nil until SetTelemetry): how many
	// payload bytes went through the WSC-2 kernels and the size
	// distribution of the contiguous runs they arrived in — the run
	// length decides which kernel tier (scalar, table, SIMD) does the
	// work, so the histogram is the capacity-planning view of the P9
	// experiment.
	wscBytes    *telemetry.Counter
	wscRunBytes *telemetry.Histogram
	// Overlap-policy instruments: conflicting-overlap runs observed and
	// chunks refused by a rejecting policy, within this receiver's
	// (hence this policy's) scope.
	overlapConflicts *telemetry.Counter
	overlapRejects   *telemetry.Counter
}

// SetOverlapPolicy selects the conflicting-overlap policy and installs
// the prior-bytes view that feeds conflict detection. The view is
// queried with element intervals in connection-stream (C.SN) space and
// must return the bytes previously placed there, or nil to decline.
// With a nil view conflicts are undetectable and every policy behaves
// like vr.FirstWins (the paper's silent duplicate discard).
func (r *Receiver) SetOverlapPolicy(pol vr.Policy, prior vr.View) {
	r.policy = pol
	r.prior = prior
	if prior == nil {
		r.shifted = nil
		return
	}
	r.shifted = func(iv vr.Interval) []byte {
		return r.prior(vr.Interval{Lo: iv.Lo + r.viewDelta, Hi: iv.Hi + r.viewDelta})
	}
}

// SetTelemetry attaches checksum instruments resolved from the sink's
// scope: counter "wsc_bytes" and histogram "wsc_run_bytes". Safe to
// call with the zero Sink (disables instrumentation).
func (r *Receiver) SetTelemetry(tel telemetry.Sink) {
	if !tel.Enabled() {
		r.wscBytes, r.wscRunBytes = nil, nil
		r.overlapConflicts, r.overlapRejects = nil, nil
		return
	}
	r.wscBytes = tel.Counter("wsc_bytes")
	r.wscRunBytes = tel.Histogram("wsc_run_bytes")
	r.overlapConflicts = tel.Counter("overlap_conflicts")
	r.overlapRejects = tel.Counter("overlap_rejects")
}

// NewReceiver returns a Receiver using the given invariant layout.
func NewReceiver(layout Layout) (*Receiver, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	return &Receiver{
		layout: layout,
		tpdus:  make(map[uint32]*tpduState),
		xs:     make(map[uint32]*xState),
	}, nil
}

//lint:hot
func (r *Receiver) tpdu(tid uint32) *tpduState {
	t := r.tpdus[tid]
	if t == nil {
		if n := len(r.free); n > 0 {
			t = r.free[n-1]
			r.free[n-1] = nil
			r.free = r.free[:n-1]
		} else {
			t = &tpduState{blk: blockAccumulator{layout: r.layout}} //lint:allow hotalloc pool miss: the steady state recycles retired TPDU records
		}
		r.tpdus[tid] = t
	}
	return t
}

func (r *Receiver) flag(class Verdict, tid uint32, format string, args ...any) {
	r.findings = append(r.findings, Finding{Class: class, TID: tid, Err: fmt.Errorf(format, args...)})
}

// Ingest processes one received chunk. Data and ED chunks are
// verified; other control types are ignored (they belong to the
// transport, not to error detection). Ingest never fails on corrupted
// content — corruption becomes findings and verdicts; the returned
// error only reports chunks this receiver cannot interpret at all.
func (r *Receiver) Ingest(c *chunk.Chunk) error {
	_, err := r.IngestFresh(c)
	return err
}

// IngestFresh is Ingest, additionally returning the chunk's FRESH
// element intervals (T.SN space) for data chunks: the sub-ranges not
// previously received and accepted by the checks. Placement must use
// exactly these ranges — the paper's duplicate-rejection rule exists
// "to prevent a corrupted duplicate from overwriting uncorrupted data
// that has already been received" (Section 3.3), and a placer that
// blindly overwrites could diverge from the verified parity.
func (r *Receiver) IngestFresh(c *chunk.Chunk) ([]vr.Interval, error) {
	fresh, _, err := r.IngestPlaced(c)
	if errors.Is(err, vr.ErrConflictingData) {
		// A policy rejection is corruption handling (a finding), not an
		// interpretation failure; IngestFresh keeps its old contract.
		err = nil
	}
	return fresh, err
}

// IngestPlaced is IngestFresh for the caller that owns the placed
// payload (the transport). Beyond fresh it returns replace: under
// vr.LastWins, the conflicting duplicate intervals whose placed bytes
// must be overwritten with c's bytes (the receiver has already swapped
// their parity contribution); nil under every other policy. When a
// rejecting policy refuses the chunk the error wraps
// vr.ErrConflictingData so the caller can escalate — tearing the
// connection down under vr.RejectConnection.
func (r *Receiver) IngestPlaced(c *chunk.Chunk) (fresh, replace []vr.Interval, err error) {
	switch c.Type {
	case chunk.TypeData:
		fresh, replace, err = r.ingestData(c)
		return fresh, replace, err
	case chunk.TypeED:
		r.ingestED(c)
		return nil, nil, nil
	case chunk.TypeSignal, chunk.TypeAck, chunk.TypeNack:
		return nil, nil, nil
	default:
		return nil, nil, chunk.ErrBadType
	}
}

func (r *Receiver) ingestData(c *chunk.Chunk) (freshOut, replaceOut []vr.Interval, errOut error) {
	t := r.tpdu(c.T.ID) //lint:allow hotalloc inlined pool miss: the steady state recycles retired TPDU records
	if t.finalized {
		if t.verdict != VerdictEDMismatch {
			return nil, nil, nil // late duplicate of a verified TPDU
		}
		// A TPDU that failed the parity compare gets a fresh chance
		// when data is retransmitted: rebuild its verification state
		// from scratch (the retransmission reuses the original
		// identifiers, Section 3.3, so the rebuild is transparent).
		t.reset(r.layout)
	}

	// Per-TPDU consistency: SIZE, C.ID and (C.SN - T.SN) must agree
	// across every chunk of the TPDU (Section 4: "If the C.SN is
	// uncorrupted, the value of (C.SN - T.SN) is constant for all
	// chunks of a TPDU").
	delta := c.C.SN - c.T.SN
	if !t.haveMeta {
		t.size, t.cid, t.delta, t.haveMeta = c.Size, c.C.ID, delta, true
	} else {
		if c.Size != t.size {
			r.flag(VerdictReassembly, c.T.ID, "SIZE %d conflicts with %d", c.Size, t.size) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
			return nil, nil, nil
		}
		if c.C.ID != t.cid {
			r.flag(VerdictConsistency, c.T.ID, "C.ID %d conflicts with %d", c.C.ID, t.cid) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
			return nil, nil, nil
		}
		if delta != t.delta {
			r.flag(VerdictConsistency, c.T.ID, "C.SN-T.SN %d conflicts with %d", delta, t.delta) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
			return nil, nil, nil
		}
	}

	// External-PDU consistency: (C.SN - X.SN) constant per X.ID.
	x := r.xs[c.X.ID]
	xdelta := c.C.SN - c.X.SN
	if x == nil {
		if n := len(r.xfree); n > 0 {
			x = r.xfree[n-1]
			r.xfree[n-1] = nil
			r.xfree = r.xfree[:n-1]
			x.delta, x.haveDelta = xdelta, true
		} else {
			x = &xState{delta: xdelta, haveDelta: true} //lint:allow hotalloc pool miss: the steady state recycles retired external-PDU records
		}
		r.xs[c.X.ID] = x
	} else if x.haveDelta && x.delta != xdelta {
		r.flag(VerdictConsistency, c.T.ID, "C.SN-X.SN %d conflicts with %d for X.ID %d", xdelta, x.delta, c.X.ID) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
		return nil, nil, nil
	}

	// Transport-level virtual reassembly with duplicate rejection and
	// the configured conflicting-overlap policy. The prior view (if
	// any) is queried in C.SN space: shift by this TPDU's verified
	// (C.SN - T.SN) delta.
	n := uint64(c.Len)
	var view vr.View
	if r.shifted != nil {
		r.viewDelta = t.delta
		view = r.shifted
	}
	fresh, conflicts, err := t.t.AddChecked(c.T.SN, n, c.T.ST, r.policy, c.Payload, int(c.Size), view)
	if len(conflicts) > 0 {
		r.overlapConflicts.Add(int64(len(conflicts)))
		for _, iv := range conflicts {
			r.flag(VerdictConsistency, c.T.ID, "overlap conflict: duplicate %v carries different bytes (%v)", iv, r.policy) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
		}
	}
	if err != nil {
		if errors.Is(err, vr.ErrConflictingData) {
			r.overlapRejects.Inc()
			if r.policy == vr.RejectPDU {
				// Abandon the TPDU entirely: its state is discarded so
				// honest retransmissions rebuild it from scratch. (The
				// placed stream bytes are the caller's; retransmitted
				// fresh intervals will overwrite them.)
				delete(r.tpdus, c.T.ID)
			}
			r.flag(VerdictReassembly, c.T.ID, "T-level reassembly: %v (%v)", err, r.policy) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
			return nil, nil, err
		}
		r.flag(VerdictReassembly, c.T.ID, "T-level reassembly: %v", err)
		return nil, nil, nil
	}
	if r.policy == vr.LastWins && len(conflicts) > 0 && view != nil {
		// Swap the conflicting elements' parity contribution: re-add
		// the old bytes (XOR-cancel), then add the replacement. The
		// caller overwrites the placed bytes for exactly these
		// intervals (replaceOut), keeping stream and parity in step.
		for _, iv := range conflicts {
			old := view(iv)
			if old == nil {
				continue
			}
			if err := t.blk.addRaw(iv.Lo, c.Size, old); err != nil {
				r.flag(VerdictReassembly, c.T.ID, "overlap replace: %v", err)
				return nil, nil, nil
			}
			if err := t.blk.addData(c, iv.Lo, iv.Hi); err != nil {
				r.flag(VerdictReassembly, c.T.ID, "overlap replace: %v", err)
				return nil, nil, nil
			}
			replaceOut = append(replaceOut, iv)
		}
	}

	// External-level virtual reassembly (ALF frame completion).
	if _, err := x.pdu.Add(c.X.SN, n, c.X.ST); err != nil {
		r.flag(VerdictReassembly, c.T.ID, "X-level reassembly (X.ID %d): %v", c.X.ID, err) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
	}

	// Accumulate only the fresh data into the parity — processing the
	// same piece twice "may cause the checksum to be incorrect even if
	// no data corruption has occurred" (Section 3.3).
	for _, iv := range fresh {
		if err := t.blk.addData(c, iv.Lo, iv.Hi); err != nil {
			r.flag(VerdictReassembly, c.T.ID, "data outside layout: %v", err)
			return nil, nil, nil
		}
		run := int64(iv.Hi-iv.Lo) * int64(c.Size)
		r.wscBytes.Add(run)
		r.wscRunBytes.Observe(run)
	}

	// Trigger encoding: only if the trigger element (the chunk's last)
	// was fresh, so retransmissions do not cancel the pair.
	lastSN := c.T.SN + n - 1
	if freshContains(fresh, lastSN) {
		if err := t.blk.addTrigger(c); err != nil {
			r.flag(VerdictReassembly, c.T.ID, "trigger outside layout: %v", err)
			return nil, nil, nil
		}
		if c.C.ST {
			t.cst = true
		}
	}

	r.maybeFinalize(c.T.ID, t)
	return fresh, replaceOut, nil
}

func (r *Receiver) ingestED(c *chunk.Chunk) {
	par, err := ParseED(c)
	if err != nil {
		r.flag(VerdictReassembly, c.T.ID, "malformed ED chunk: %v", err)
		return
	}
	t := r.tpdu(c.T.ID) //lint:allow hotalloc inlined pool miss: the steady state recycles retired TPDU records
	if t.finalized {
		if t.verdict != VerdictEDMismatch {
			return
		}
		t.reset(r.layout)
	}
	if t.haveMeta && c.C.ID != t.cid {
		r.flag(VerdictConsistency, c.T.ID, "ED chunk C.ID %d conflicts with %d", c.C.ID, t.cid) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
		return
	}
	if t.haveWant {
		if t.want != par {
			r.flag(VerdictConsistency, c.T.ID, "duplicate ED chunks disagree")
		}
		return
	}
	t.want, t.haveWant = par, true
	r.maybeFinalize(c.T.ID, t)
}

func (r *Receiver) maybeFinalize(tid uint32, t *tpduState) {
	if t.finalized || !t.haveWant || !t.t.Complete() {
		return
	}
	t.finalized = true
	if err := t.blk.addIdentity(tid, t.cid, t.cst); err != nil {
		t.verdict = VerdictReassembly
		r.flag(VerdictReassembly, tid, "identity outside layout: %v", err)
		return
	}
	if wsc.Verify(t.blk.parity(), t.want) {
		t.verdict = VerdictOK
		return
	}
	t.verdict = VerdictEDMismatch
	r.flag(VerdictEDMismatch, tid, "WSC-2 parity mismatch: got %+v want %+v", t.blk.parity(), t.want) //lint:allow hotalloc cold finding path: the variadic call boxes its operands
}

func freshContains(ivs []vr.Interval, sn uint64) bool {
	for _, iv := range ivs {
		if sn >= iv.Lo && sn < iv.Hi {
			return true
		}
	}
	return false
}

// ResetTPDU discards all verification state of one TPDU so that a
// retransmission can rebuild it from scratch. Detection state (the
// findings log) is retained. This is the recovery escape hatch for a
// TPDU whose state was poisoned by corruption on its FIRST-arriving
// chunk (which seeds the consistency baselines) or rebuilt from a
// corrupted duplicate: the receiver requests a full retransmission
// and starts the TPDU over.
func (r *Receiver) ResetTPDU(tid uint32) {
	r.Retire(tid)
}

// Retire releases the verification state of a TPDU the caller is done
// with (typically verified and acknowledged), recycling the record for
// the next TPDU. Together with the map's insert/delete balance this
// bounds receiver memory over a long connection and keeps the steady
// receive path allocation-free. A later duplicate of a retired TPDU
// restarts tracking from scratch; callers that care (the transport)
// must drop such chunks themselves.
//
//lint:hot
func (r *Receiver) Retire(tid uint32) {
	t := r.tpdus[tid]
	if t == nil {
		return
	}
	delete(r.tpdus, tid)
	t.reset(r.layout)
	r.free = append(r.free, t)
}

// RetireX releases the virtual-reassembly state of one external PDU
// (after its ALF frame has been delivered) — the X-level half of the
// memory bound Retire provides at T level.
//
//lint:hot
func (r *Receiver) RetireX(xid uint32) {
	x := r.xs[xid]
	if x == nil {
		return
	}
	delete(r.xs, xid)
	x.pdu.Reset()
	x.delta, x.haveDelta = 0, false
	r.xfree = append(r.xfree, x)
}

// TPDUExtent returns the connection-stream (C.SN) element range
// [lo, hi) occupied by a TPDU whose end is known — what a stream
// manager needs to trim delivered bytes when the TPDU retires. ok is
// false when the TPDU is unknown or its T.ST element has not arrived.
//
//lint:hot
func (r *Receiver) TPDUExtent(tid uint32) (lo, hi uint64, ok bool) {
	t := r.tpdus[tid]
	if t == nil || !t.haveMeta {
		return 0, 0, false
	}
	end, haveEnd := t.t.End()
	if !haveEnd {
		return 0, 0, false
	}
	return t.delta, t.delta + end, true
}

// XExtent returns the connection-stream (C.SN) element range [lo, hi)
// of an external PDU whose end is known — where its ALF frame sits in
// the placed stream. Both bounds come only from chunks that passed the
// C.SN-X.SN consistency check, so a rejected chunk cannot move them. ok
// is false when the external PDU is unknown or its X.ST element has not
// arrived.
//
//lint:hot
func (r *Receiver) XExtent(xid uint32) (lo, hi uint64, ok bool) {
	x := r.xs[xid]
	if x == nil {
		return 0, 0, false
	}
	end, haveEnd := x.pdu.End()
	if !haveEnd {
		return 0, 0, false
	}
	return x.delta, x.delta + end, true
}

// Verdict returns the current verdict for a TPDU.
func (r *Receiver) Verdict(tid uint32) Verdict {
	t := r.tpdus[tid]
	if t == nil || !t.finalized {
		return VerdictPending
	}
	return t.verdict
}

// Findings returns every anomaly detected so far, in detection order.
func (r *Receiver) Findings() []Finding {
	return append([]Finding(nil), r.findings...)
}

// TPDUFindings returns the findings attributed to one TPDU.
func (r *Receiver) TPDUFindings(tid uint32) []Finding {
	var out []Finding
	for _, f := range r.findings {
		if f.TID == tid {
			out = append(out, f)
		}
	}
	return out
}

// XComplete reports whether external PDU xid has fully arrived — the
// ALF-frame-ready signal an application consumes.
func (r *Receiver) XComplete(xid uint32) bool {
	x := r.xs[xid]
	return x != nil && x.pdu.Complete()
}

// TPDUStatus reports the virtual-reassembly state of a TPDU for
// retransmission decisions: whether its end (T.ST) has been seen, and
// one past the highest element received.
func (r *Receiver) TPDUStatus(tid uint32) (haveEnd bool, high uint64) {
	t := r.tpdus[tid]
	if t == nil {
		return false, 0
	}
	_, haveEnd = t.t.End()
	return haveEnd, t.t.High()
}

// Fragments returns the current interval count of TPDU tid's virtual
// reassembly — the per-TPDU state footprint the §3.3 discussion
// bounds. 0 for unknown TPDUs.
func (r *Receiver) Fragments(tid uint32) int {
	t := r.tpdus[tid]
	if t == nil {
		return 0
	}
	return t.t.Fragments()
}

// Missing returns the T.SN gaps of an unfinished TPDU (NACK input).
func (r *Receiver) Missing(tid uint32) []vr.Interval {
	t := r.tpdus[tid]
	if t == nil {
		return nil
	}
	return t.t.Missing()
}

// Finalize ends the receive phase (end of input or retransmission
// timeout): every TPDU still pending is flagged as a reassembly
// failure, per the paper's model where reassembly "never completes".
// It returns the final verdict per TPDU.
func (r *Receiver) Finalize() map[uint32]Verdict {
	out := make(map[uint32]Verdict, len(r.tpdus))
	// Walk TPDUs in sorted order: the findings appended below are part
	// of the receiver's observable output, and map order would make
	// their sequence differ run to run (determinism invariant).
	tids := make([]uint32, 0, len(r.tpdus))
	for tid := range r.tpdus {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		t := r.tpdus[tid]
		if !t.finalized {
			t.finalized = true
			t.verdict = VerdictReassembly
			switch {
			case !t.t.Complete():
				r.flag(VerdictReassembly, tid, "input ended with TPDU incomplete; missing %v", t.t.Missing())
			default:
				r.flag(VerdictReassembly, tid, "input ended without ED chunk")
			}
		}
		out[tid] = t.verdict
	}
	// External PDUs with gaps (or a known end not reached) are
	// reassembly failures too: the ALF frame never becomes ready.
	// Sorted for the same reason as the TPDU walk above.
	xids := make([]uint32, 0, len(r.xs))
	for xid := range r.xs {
		xids = append(xids, xid)
	}
	sort.Slice(xids, func(i, j int) bool { return xids[i] < xids[j] })
	for _, xid := range xids {
		x := r.xs[xid]
		if end, ok := x.pdu.End(); ok && !x.pdu.Complete() {
			r.findings = append(r.findings, Finding{
				Class: VerdictReassembly,
				Err:   fmt.Errorf("external PDU %d incomplete: %d of %d elements", xid, x.pdu.Received(), end),
			})
		} else if !ok && len(x.pdu.Missing()) > 0 {
			r.findings = append(r.findings, Finding{
				Class: VerdictReassembly,
				Err:   fmt.Errorf("external PDU %d has internal gaps %v", xid, x.pdu.Missing()),
			})
		}
	}
	return out
}
