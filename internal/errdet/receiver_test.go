package errdet

import (
	"math/rand"
	"testing"

	"chunks/internal/chunk"
)

// buildTPDU returns the fragments of one TPDU (fragmented with the
// given per-chunk element budget) plus its ED chunk.
func buildTPDU(t *testing.T, tid uint32, elems, perFrag int) ([]chunk.Chunk, chunk.Chunk) {
	t.Helper()
	orig := makeTPDU(tid, elems, 4, int64(tid))
	l := DefaultLayout()
	par, err := Encode(l, []chunk.Chunk{orig})
	if err != nil {
		t.Fatal(err)
	}
	frags, err := orig.SplitToFit(chunk.HeaderSize + perFrag*4)
	if err != nil {
		t.Fatal(err)
	}
	return frags, EDChunk(orig.C.ID, tid, orig.C.SN, par)
}

func ingestAll(t *testing.T, r *Receiver, chs []chunk.Chunk) {
	t.Helper()
	for i := range chs {
		if err := r.Ingest(&chs[i]); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
}

func newReceiver(t *testing.T) *Receiver {
	t.Helper()
	r, err := NewReceiver(DefaultLayout())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReceiverHappyPathInOrder(t *testing.T) {
	frags, ed := buildTPDU(t, 1, 40, 8)
	r := newReceiver(t)
	ingestAll(t, r, frags)
	if r.Verdict(1) != VerdictPending {
		t.Fatal("verdict must be pending before the ED chunk")
	}
	_ = r.Ingest(&ed)
	if r.Verdict(1) != VerdictOK {
		t.Fatalf("verdict = %v, findings: %v", r.Verdict(1), r.Findings())
	}
	if len(r.Findings()) != 0 {
		t.Fatalf("unexpected findings: %v", r.Findings())
	}
}

// TestReceiverDisordered: verification succeeds over ANY arrival
// order, including the ED chunk arriving first — the "processing of
// disordered data" the whole paper is about.
func TestReceiverDisordered(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		frags, ed := buildTPDU(t, 1, 40, 7)
		all := append(append([]chunk.Chunk{}, frags...), ed)
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		r := newReceiver(t)
		ingestAll(t, r, all)
		if r.Verdict(1) != VerdictOK {
			t.Fatalf("trial %d: verdict = %v, findings: %v", trial, r.Verdict(1), r.Findings())
		}
	}
}

// TestReceiverDuplicates: retransmitted chunks (same identifiers, per
// Section 3.3) must not disturb the incremental parity.
func TestReceiverDuplicates(t *testing.T) {
	frags, ed := buildTPDU(t, 1, 40, 8)
	r := newReceiver(t)
	ingestAll(t, r, frags)
	ingestAll(t, r, frags) // full retransmission
	_ = r.Ingest(&ed)
	_ = r.Ingest(&ed) // duplicate ED
	if r.Verdict(1) != VerdictOK {
		t.Fatalf("verdict = %v, findings: %v", r.Verdict(1), r.Findings())
	}
}

// TestReceiverOverlappingRetransmission: a retransmission with
// DIFFERENT fragmentation boundaries (re-fragmented on a new route)
// partially overlaps data already received; only the fresh parts may
// be accumulated.
func TestReceiverOverlappingRetransmission(t *testing.T) {
	orig := makeTPDU(2, 48, 4, 2)
	l := DefaultLayout()
	par, _ := Encode(l, []chunk.Chunk{orig})
	ed := EDChunk(orig.C.ID, 2, orig.C.SN, par)

	fragsA, _ := orig.SplitToFit(chunk.HeaderSize + 7*4)
	fragsB, _ := orig.SplitToFit(chunk.HeaderSize + 11*4)

	r := newReceiver(t)
	// Lose half of A's fragments, then "retransmit" as B's framing.
	for i := range fragsA {
		if i%2 == 0 {
			_ = r.Ingest(&fragsA[i])
		}
	}
	ingestAll(t, r, fragsB)
	_ = r.Ingest(&ed)
	if r.Verdict(2) != VerdictOK {
		t.Fatalf("verdict = %v, findings: %v", r.Verdict(2), r.Findings())
	}
}

func TestReceiverLossDetected(t *testing.T) {
	frags, ed := buildTPDU(t, 1, 40, 8)
	r := newReceiver(t)
	for i := range frags {
		if i == 2 {
			continue // lost fragment
		}
		_ = r.Ingest(&frags[i])
	}
	_ = r.Ingest(&ed)
	if r.Verdict(1) != VerdictPending {
		t.Fatal("incomplete TPDU must stay pending")
	}
	if miss := r.Missing(1); len(miss) != 1 {
		t.Fatalf("Missing = %v", miss)
	}
	verdicts := r.Finalize()
	if verdicts[1] != VerdictReassembly {
		t.Fatalf("finalized verdict = %v", verdicts[1])
	}
}

func TestReceiverLostEDChunk(t *testing.T) {
	frags, _ := buildTPDU(t, 1, 40, 8)
	r := newReceiver(t)
	ingestAll(t, r, frags)
	verdicts := r.Finalize()
	if verdicts[1] != VerdictReassembly {
		t.Fatalf("verdict without ED chunk = %v", verdicts[1])
	}
}

func TestReceiverDataCorruption(t *testing.T) {
	frags, ed := buildTPDU(t, 1, 40, 8)
	frags[3].Payload = append([]byte(nil), frags[3].Payload...)
	frags[3].Payload[0] ^= 0xFF
	r := newReceiver(t)
	ingestAll(t, r, frags)
	_ = r.Ingest(&ed)
	if r.Verdict(1) != VerdictEDMismatch {
		t.Fatalf("verdict = %v", r.Verdict(1))
	}
}

func TestReceiverCSNCorruption(t *testing.T) {
	frags, ed := buildTPDU(t, 1, 40, 8)
	frags[3].C.SN += 5 // breaks C.SN - T.SN constancy
	r := newReceiver(t)
	ingestAll(t, r, frags)
	_ = r.Ingest(&ed)
	found := false
	for _, f := range r.Findings() {
		if f.Class == VerdictConsistency {
			found = true
		}
	}
	if !found {
		t.Fatalf("C.SN corruption must trip the consistency check: %v", r.Findings())
	}
}

func TestReceiverXSNCorruption(t *testing.T) {
	frags, ed := buildTPDU(t, 1, 40, 8)
	frags[3].X.SN += 2 // breaks C.SN - X.SN constancy
	r := newReceiver(t)
	ingestAll(t, r, frags)
	_ = r.Ingest(&ed)
	found := false
	for _, f := range r.Findings() {
		if f.Class == VerdictConsistency {
			found = true
		}
	}
	if !found {
		t.Fatalf("X.SN corruption must trip the consistency check: %v", r.Findings())
	}
}

func TestReceiverMultipleTPDUs(t *testing.T) {
	r := newReceiver(t)
	var eds []chunk.Chunk
	for tid := uint32(1); tid <= 4; tid++ {
		frags, ed := buildTPDU(t, tid, 24, 5)
		ingestAll(t, r, frags)
		eds = append(eds, ed)
	}
	ingestAll(t, r, eds)
	for tid := uint32(1); tid <= 4; tid++ {
		if r.Verdict(tid) != VerdictOK {
			t.Fatalf("TPDU %d verdict = %v", tid, r.Verdict(tid))
		}
	}
}

func TestReceiverXComplete(t *testing.T) {
	frags, ed := buildTPDU(t, 1, 40, 8)
	xid := frags[0].X.ID
	r := newReceiver(t)
	if r.XComplete(xid) {
		t.Fatal("X PDU cannot be complete before data")
	}
	ingestAll(t, r, frags)
	_ = r.Ingest(&ed)
	if !r.XComplete(xid) {
		t.Fatal("X PDU must be complete")
	}
}

// TestReceiverXExtent: the external PDU's stream range is known once
// its X.ST element arrives, and a forged X.ST chunk that fails the
// C.SN-X.SN check does not move it.
func TestReceiverXExtent(t *testing.T) {
	frags, _ := buildTPDU(t, 1, 40, 8)
	xid := frags[0].X.ID
	r := newReceiver(t)
	if _, _, ok := r.XExtent(xid); ok {
		t.Fatal("extent known before any data")
	}
	last := len(frags) - 1
	ingestAll(t, r, frags[:last])
	if _, _, ok := r.XExtent(xid); ok {
		t.Fatal("extent known before the X.ST element")
	}
	forged := frags[last].Clone()
	forged.X.SN += 100000
	ingestAll(t, r, []chunk.Chunk{forged, frags[last]})
	lo, hi, ok := r.XExtent(xid)
	if want := frags[0].C.SN; !ok || lo != want || hi != want+40 {
		t.Fatalf("XExtent = [%d, %d) %v, want [%d, %d) true", lo, hi, ok, want, want+40)
	}
}

func TestReceiverIgnoresTransportControl(t *testing.T) {
	r := newReceiver(t)
	sig := chunk.Chunk{Type: chunk.TypeSignal, Size: 1, Len: 1, Payload: []byte{1}}
	ack := chunk.Chunk{Type: chunk.TypeAck, Size: 1, Len: 1, Payload: []byte{1}}
	if err := r.Ingest(&sig); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(&ack); err != nil {
		t.Fatal(err)
	}
	bad := chunk.Chunk{Type: chunk.Type(99), Size: 1, Len: 1, Payload: []byte{1}}
	if err := r.Ingest(&bad); err == nil {
		t.Fatal("unknown type must error")
	}
}

func TestReceiverMalformedED(t *testing.T) {
	r := newReceiver(t)
	bad := chunk.Chunk{Type: chunk.TypeED, Size: 4, Len: 1, Payload: []byte{1, 2, 3, 4}}
	_ = r.Ingest(&bad)
	fs := r.Findings()
	if len(fs) != 1 || fs[0].Class != VerdictReassembly {
		t.Fatalf("findings = %v", fs)
	}
}

func TestReceiverLateChunkAfterFinalize(t *testing.T) {
	frags, ed := buildTPDU(t, 1, 40, 8)
	r := newReceiver(t)
	ingestAll(t, r, frags)
	_ = r.Ingest(&ed)
	// Late duplicates after the verdict must be inert.
	_ = r.Ingest(&frags[0])
	_ = r.Ingest(&ed)
	if r.Verdict(1) != VerdictOK {
		t.Fatalf("verdict = %v", r.Verdict(1))
	}
}

// TestReceiverSpansTPDUs: an external PDU spanning two TPDUs (like
// Figure 6's PDU C) completes only when its tail arrives in the next
// TPDU, while both TPDUs verify independently.
func TestReceiverSpansTPDUs(t *testing.T) {
	const cid, xid = 0xA, 0x77
	l := DefaultLayout()
	mk := func(tid uint32, csn, xsn uint64, tst, xst bool, n int, seed int64) chunk.Chunk {
		rng := rand.New(rand.NewSource(seed))
		p := make([]byte, n*4)
		rng.Read(p)
		return chunk.Chunk{
			Type: chunk.TypeData, Size: 4, Len: uint32(n),
			C:       chunk.Tuple{ID: cid, SN: csn},
			T:       chunk.Tuple{ID: tid, SN: 0, ST: tst},
			X:       chunk.Tuple{ID: xid, SN: xsn, ST: xst},
			Payload: p,
		}
	}
	// TPDU 1: elements 0-9 of X PDU (X continues). TPDU 2: elements
	// 10-15, X ends.
	t1 := mk(1, 100, 0, true, false, 10, 1)
	t2 := mk(2, 110, 10, true, true, 6, 2)
	p1, err := Encode(l, []chunk.Chunk{t1})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Encode(l, []chunk.Chunk{t2})
	if err != nil {
		t.Fatal(err)
	}
	r := newReceiver(t)
	_ = r.Ingest(&t1)
	ed1 := EDChunk(cid, 1, 100, p1)
	_ = r.Ingest(&ed1)
	if r.Verdict(1) != VerdictOK {
		t.Fatalf("TPDU 1: %v, findings %v", r.Verdict(1), r.Findings())
	}
	if r.XComplete(xid) {
		t.Fatal("X PDU must not be complete after TPDU 1")
	}
	_ = r.Ingest(&t2)
	ed2 := EDChunk(cid, 2, 110, p2)
	_ = r.Ingest(&ed2)
	if r.Verdict(2) != VerdictOK {
		t.Fatalf("TPDU 2: %v, findings %v", r.Verdict(2), r.Findings())
	}
	if !r.XComplete(xid) {
		t.Fatal("X PDU must complete with TPDU 2")
	}
	if len(r.Finalize()) != 2 {
		t.Fatal("two TPDUs expected")
	}
	for _, f := range r.Findings() {
		t.Fatalf("unexpected finding: %v", f)
	}
}

func TestVerdictStrings(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictPending: "pending", VerdictOK: "ok",
		VerdictEDMismatch:  "error-detection-code",
		VerdictConsistency: "consistency-check",
		VerdictReassembly:  "reassembly-error",
		Verdict(42):        "unknown",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q", v, v.String())
		}
	}
	if VerdictOK.Detected() || VerdictPending.Detected() {
		t.Fatal("ok/pending are not detections")
	}
	if !VerdictEDMismatch.Detected() || !VerdictConsistency.Detected() || !VerdictReassembly.Detected() {
		t.Fatal("error verdicts are detections")
	}
}

func TestNewReceiverBadLayout(t *testing.T) {
	if _, err := NewReceiver(Layout{}); err == nil {
		t.Fatal("invalid layout must be rejected")
	}
}

func BenchmarkReceiverTPDU64K(b *testing.B) {
	orig := makeTPDU(1, 16384, 4, 1) // 64 KiB TPDU
	l := DefaultLayout()
	par, err := Encode(l, []chunk.Chunk{orig})
	if err != nil {
		b.Fatal(err)
	}
	ed := EDChunk(orig.C.ID, 1, orig.C.SN, par)
	frags, err := orig.SplitToFit(1400)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(orig.Payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := NewReceiver(l)
		for j := range frags {
			_ = r.Ingest(&frags[j])
		}
		_ = r.Ingest(&ed)
		if r.Verdict(1) != VerdictOK {
			b.Fatal("verification failed")
		}
	}
}

func BenchmarkEncodeTPDU64K(b *testing.B) {
	orig := makeTPDU(1, 16384, 4, 1)
	l := DefaultLayout()
	b.SetBytes(int64(len(orig.Payload)))
	for i := 0; i < b.N; i++ {
		if _, err := Encode(l, []chunk.Chunk{orig}); err != nil {
			b.Fatal(err)
		}
	}
}
