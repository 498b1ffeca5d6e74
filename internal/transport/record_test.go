package transport

import (
	"bytes"
	"reflect"
	"testing"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
)

// frameChunks sends data as one external PDU and returns every chunk
// the sender emitted, decoded and cloned, in emission order.
func frameChunks(t *testing.T, cfg SenderConfig, data []byte) []chunk.Chunk {
	t.Helper()
	var dgrams [][]byte
	s := adaptiveSender(t, cfg, &dgrams)
	if err := s.Write(data); err != nil {
		t.Fatal(err)
	}
	s.EndFrame()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var out []chunk.Chunk
	for _, d := range dgrams {
		p, err := packet.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Chunks {
			out = append(out, p.Chunks[i].Clone())
		}
	}
	return out
}

// feed hands clones of chunks to r one by one.
func feed(t *testing.T, r *Receiver, chs ...chunk.Chunk) {
	t.Helper()
	for i := range chs {
		cl := chs[i].Clone()
		if err := r.HandleChunk(&cl); err != nil {
			t.Fatal(err)
		}
	}
}

// rebuildAfterMismatch drives one multi-chunk TPDU through a WSC-2
// failure and its recovery: a pass with one payload byte flipped, a
// partial retransmission (one clean data chunk, which makes errdet
// rebuild the TPDU), then a full clean retransmission. check runs
// after each step.
func rebuildAfterMismatch(t *testing.T, r *Receiver, check func(step string)) {
	t.Helper()
	chs := frameChunks(t, SenderConfig{CID: 6, MTU: 128, TPDUElems: 64}, appData(64*4, 8))
	first := -1
	for i := range chs {
		if chs[i].Type == chunk.TypeData {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("sender emitted no data chunk")
	}
	bad := chs[first].Clone()
	bad.Payload[0] ^= 0x01
	for i := range chs {
		if i == first {
			feed(t, r, bad)
		} else {
			feed(t, r, chs[i])
		}
	}
	check("corrupt pass")
	feed(t, r, chs[first])
	check("partial retransmission")
	feed(t, r, chs...)
	check("full retransmission")
}

// TestRebuiltTPDUNeedsPoll: a TPDU that failed WSC-2 and is being
// rebuilt from a retransmission is pending again, so the timer wheel
// must keep polling it (NACKs, stall escalation, reaping).
func TestRebuiltTPDUNeedsPoll(t *testing.T) {
	r, err := NewReceiver(ReceiverConfig{}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	pending := []int{}
	rebuildAfterMismatch(t, r, func(step string) {
		if got, want := r.NeedsPoll(), r.PendingTPDUs() > 0; got != want {
			t.Fatalf("after %s: NeedsPoll %v but PendingTPDUs %d", step, got, r.PendingTPDUs())
		}
		pending = append(pending, r.PendingTPDUs())
	})
	if want := []int{0, 1, 0}; !reflect.DeepEqual(pending, want) {
		t.Fatalf("PendingTPDUs per step %v, want %v", pending, want)
	}
	if r.VerifiedCount() != 1 {
		t.Fatalf("verified %d after the full retransmission, want 1", r.VerifiedCount())
	}
}

// TestOnTPDUReportsEachVerdict: OnTPDU fires once per pending → final
// transition, so a TPDU that fails and later verifies reports both
// verdicts, and the tpdus_verified counter agrees with VerifiedCount.
func TestOnTPDUReportsEachVerdict(t *testing.T) {
	reg := telemetry.New(0)
	var verdicts []errdet.Verdict
	r, err := NewReceiver(ReceiverConfig{
		OnTPDU: func(_ uint32, v errdet.Verdict) { verdicts = append(verdicts, v) },
		Tel:    reg.Sink("recv"),
	}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	rebuildAfterMismatch(t, r, func(string) {})
	if want := []errdet.Verdict{errdet.VerdictEDMismatch, errdet.VerdictOK}; !reflect.DeepEqual(verdicts, want) {
		t.Fatalf("OnTPDU verdicts %v, want %v", verdicts, want)
	}
	c := reg.Snapshot().Scopes["recv"].Counters
	if got := c["tpdus_verified"]; got != int64(r.VerifiedCount()) {
		t.Fatalf("tpdus_verified %d, VerifiedCount %d", got, r.VerifiedCount())
	}
	if got := c["tpdus_failed"]; got != 1 {
		t.Fatalf("tpdus_failed %d, want 1", got)
	}
}

// TestForgedXSNCannotBlockFrame: a forged copy of a frame's X.ST chunk
// with a shifted X.SN is rejected by errdet's C.SN-X.SN check and must
// not move the frame's end, so the frame is still delivered once its
// held-back middle chunk arrives (the forged-fragment class of
// IPv6 fragment-handling test models).
func TestForgedXSNCannotBlockFrame(t *testing.T) {
	frame := appData(64*4, 9)
	chs := frameChunks(t, SenderConfig{CID: 5, MTU: 128, TPDUElems: 64}, frame)
	var data []int
	for i := range chs {
		if chs[i].Type == chunk.TypeData {
			data = append(data, i)
		}
	}
	if len(data) < 3 {
		t.Fatalf("frame split into %d data chunks, want at least 3", len(data))
	}
	held := data[1]

	var got [][]byte
	r, err := NewReceiver(ReceiverConfig{OnFrame: func(_ uint32, b []byte) {
		got = append(got, append([]byte(nil), b...))
	}}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	forged := false
	for i := range chs {
		if i == held {
			continue
		}
		feed(t, r, chs[i])
		if chs[i].Type == chunk.TypeData && chs[i].X.ST {
			f := chs[i].Clone()
			f.X.SN += 100000
			before := len(r.Findings())
			feed(t, r, f)
			if n := len(r.Findings()) - before; n != 1 {
				t.Fatalf("forged X.SN produced %d findings, want 1", n)
			}
			forged = true
		}
	}
	if !forged {
		t.Fatal("no X.ST chunk to forge")
	}
	if len(got) != 0 {
		t.Fatal("frame delivered before its held chunk arrived")
	}
	feed(t, r, chs[held])
	if len(got) != 1 || !bytes.Equal(got[0], frame) {
		t.Fatalf("delivered %d frames after the held chunk, want the one frame intact", len(got))
	}
}

// TestIdleReceiverFootprint pins what an idle receiver costs to build:
// one T.ID-keyed record map and one delivered-frame set in the
// transport, so per-TPDU map headers cannot creep back.
func TestIdleReceiverFootprint(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NewReceiver(ReceiverConfig{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 && !raceEnabled {
		t.Errorf("NewReceiver allocates %.0f objects, want at most 10", allocs)
	}
}
