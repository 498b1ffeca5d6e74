package transport

import (
	"testing"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
)

// sendOneTPDU cuts one TPDU on a fresh sender with the given C.ID and
// returns the sender and its datagrams (open signal included).
func sendOneTPDU(t *testing.T, cid uint32) (*Sender, [][]byte) {
	t.Helper()
	var dgrams [][]byte
	s := NewSender(SenderConfig{CID: cid, MTU: 512, ElemSize: 4, TPDUElems: 64, Tel: telemetry.New(0).Sink("s")},
		func(d []byte) { dgrams = append(dgrams, append([]byte(nil), d...)) })
	if err := s.Write(appData(256, int64(cid))); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Unacked() != 1 {
		t.Fatalf("Unacked = %d, want 1", s.Unacked())
	}
	return s, dgrams
}

// controlChunks decodes every chunk of the control datagrams.
func controlChunks(t *testing.T, ctrl [][]byte) []chunk.Chunk {
	t.Helper()
	var out []chunk.Chunk
	for _, d := range ctrl {
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

// TestAckLabelWithoutOpenSignal is the regression test for control
// labelled with C.ID 0: a TPDU that verifies before the open signal
// arrives (the signal was lost or reordered) must still be ACKed with
// the connection's C.ID.
func TestAckLabelWithoutOpenSignal(t *testing.T) {
	_, dgrams := sendOneTPDU(t, 7)
	var ctrl [][]byte
	r, err := NewReceiver(ReceiverConfig{MTU: 512}, func(d []byte) { ctrl = append(ctrl, append([]byte(nil), d...)) })
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	for _, d := range dgrams {
		p, err := packet.Decode(d)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p.Chunks {
			if p.Chunks[i].Type == chunk.TypeSignal {
				continue // the open signal is lost
			}
			if err := r.HandleChunk(&p.Chunks[i]); err != nil {
				t.Fatal(err)
			}
			fed++
		}
	}
	if fed == 0 || r.Opened() {
		t.Fatalf("fed %d chunks, opened=%v: want data without the open signal", fed, r.Opened())
	}
	acks := controlChunks(t, ctrl)
	if len(acks) != 1 || acks[0].Type != chunk.TypeAck {
		t.Fatalf("control = %v, want one ACK", acks)
	}
	if acks[0].C.ID != 7 {
		t.Fatalf("ACK C.ID = %d, want 7", acks[0].C.ID)
	}
}

// TestForgedOpenCannotRelabelAcks: an open signal carrying another
// C.ID, fed to an established receiver, must not change the C.ID its
// later control carries.
func TestForgedOpenCannotRelabelAcks(t *testing.T) {
	_, dgrams := sendOneTPDU(t, 7)
	var ctrl [][]byte
	r, err := NewReceiver(ReceiverConfig{MTU: 512}, func(d []byte) { ctrl = append(ctrl, append([]byte(nil), d...)) })
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dgrams {
		if err := r.HandlePacket(d); err != nil {
			t.Fatal(err)
		}
	}
	forged := SignalOpen(99, 4, 0)
	if err := r.HandleChunk(&forged); err != nil {
		t.Fatal(err)
	}
	ctrl = nil
	// A duplicate of the TPDU (the sender's retransmission after a lost
	// ACK) is re-acknowledged.
	for _, d := range dgrams[1:] {
		if err := r.HandlePacket(d); err != nil {
			t.Fatal(err)
		}
	}
	acks := controlChunks(t, ctrl)
	if len(acks) == 0 {
		t.Fatal("duplicate TPDU was not re-acknowledged")
	}
	for _, a := range acks {
		if a.C.ID != 7 {
			t.Fatalf("after a forged open, control C.ID = %d, want 7", a.C.ID)
		}
	}
}

// TestSenderIgnoresForeignControl is the regression test for a sender
// acting on another connection's ACKs and NACKs: they must neither
// clear nor retransmit its TPDUs, and are counted as control_foreign.
func TestSenderIgnoresForeignControl(t *testing.T) {
	reg := telemetry.New(0)
	var sent int
	s := NewSender(SenderConfig{CID: 1, MTU: 512, ElemSize: 4, TPDUElems: 64, Tel: reg.Sink("s")},
		func([]byte) { sent++ })
	if err := s.Write(appData(256, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Unacked() != 1 {
		t.Fatalf("Unacked = %d, want 1", s.Unacked())
	}
	const tid = 0 // the first TPDU starts at C.SN 0
	ack, nack := Ack(99, tid), Nack(99, tid, nil)
	sent = 0
	for _, c := range []*chunk.Chunk{&ack, &nack} {
		if err := s.HandleControlAt(c, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s.Unacked() != 1 {
		t.Fatalf("a foreign ACK cleared the TPDU: Unacked = %d, want 1", s.Unacked())
	}
	if sent != 0 || s.Retransmits != 0 {
		t.Fatalf("a foreign NACK retransmitted: %d datagrams, %d retransmits", sent, s.Retransmits)
	}
	if got := reg.Snapshot().Scopes["s"].Counters["control_foreign"]; got != 2 {
		t.Fatalf("control_foreign = %d, want 2", got)
	}
	own := Ack(1, tid)
	if err := s.HandleControlAt(&own, 0); err != nil {
		t.Fatal(err)
	}
	if s.Unacked() != 0 {
		t.Fatalf("own ACK did not clear the TPDU: Unacked = %d", s.Unacked())
	}
}
