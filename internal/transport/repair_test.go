package transport

import (
	"bytes"
	"testing"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/errdet"
	"chunks/internal/packet"
)

// corruptingPump wires a sender and receiver through a pipe that
// flips one payload bit in one data packet.
func runWithBitFlip(t *testing.T, repair bool) (*Receiver, *Sender, []byte) {
	t.Helper()
	data := appData(4096, 21)

	var toRecv, toSend [][]byte
	s := NewSender(SenderConfig{CID: 4, MTU: 512, ElemSize: 4, TPDUElems: 256},
		func(d []byte) { toRecv = append(toRecv, append([]byte(nil), d...)) })
	r, err := NewReceiver(ReceiverConfig{Repair: repair}, func(d []byte) {
		toSend = append(toSend, append([]byte(nil), d...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	flipped := false
	var now time.Duration // virtual clock, advanced as the Pump does
	for round := 0; round < 50; round++ {
		out := toRecv
		toRecv = nil
		for _, d := range out {
			if !flipped {
				// Find a data chunk packet and flip one payload bit.
				if p, err := packet.Decode(d); err == nil && len(p.Chunks) > 0 &&
					p.Chunks[0].Type == 1 /* data */ && len(p.Chunks[0].Payload) > 8 {
					d[len(d)-5] ^= 0x10
					flipped = true
				}
			}
			if err := r.HandlePacket(d); err != nil {
				t.Fatal(err)
			}
		}
		in := toSend
		toSend = nil
		for _, d := range in {
			pk, err := packet.Decode(d)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pk.Chunks {
				if err := s.HandleControlAt(&pk.Chunks[i], now); err != nil {
					t.Fatal(err)
				}
			}
		}
		now += pumpTick
		r.Poll()
		if err := s.PollAt(now); err != nil {
			t.Fatal(err)
		}
		if s.Drained() && len(toRecv) == 0 && len(toSend) == 0 {
			break
		}
	}
	if !flipped {
		t.Fatal("no packet was corrupted")
	}
	return r, s, data
}

// TestRepairAvoidsRetransmission: with Repair on, a single flipped
// bit is fixed locally — correct stream, zero retransmissions.
func TestRepairAvoidsRetransmission(t *testing.T) {
	r, s, data := runWithBitFlip(t, true)
	if r.Repaired() != 1 {
		t.Fatalf("Repaired = %d", r.Repaired())
	}
	if !bytes.Equal(r.Stream(), data) {
		t.Fatal("repaired stream differs")
	}
	if s.Retransmits != 0 {
		t.Fatalf("repair path should not retransmit, got %d", s.Retransmits)
	}
	if !s.Drained() {
		t.Fatal("sender must drain (repaired TPDU is ACKed)")
	}
}

// TestNoRepairRecoversByRetransmission: without Repair the corrupted
// TPDU fails the parity compare, the sender's timeout retransmits it
// wholesale (same identifiers), the receiver rebuilds the TPDU's
// verification state, and everything converges to a verified stream.
func TestNoRepairRecoversByRetransmission(t *testing.T) {
	r, s, data := runWithBitFlip(t, false)
	if r.Repaired() != 0 {
		t.Fatal("repair must be off")
	}
	mismatch := false
	for _, f := range r.Findings() {
		if f.Class == errdet.VerdictEDMismatch {
			mismatch = true
		}
	}
	if !mismatch {
		t.Fatal("corruption must be detected by the ED code")
	}
	if s.Retransmits == 0 {
		t.Fatal("recovery requires retransmission")
	}
	if !bytes.Equal(r.Stream(), data) {
		t.Fatal("retransmission must restore the stream")
	}
	if !s.Drained() {
		t.Fatal("rebuilt TPDU must verify and be ACKed")
	}
}

// TestCorruptedDuplicateCannotOverwrite reproduces the Section 3.3
// sentence verbatim: "Another reason to reject duplicates is to
// prevent a corrupted duplicate from overwriting uncorrupted data
// that has already been received." The good copy arrives first; a
// corrupted duplicate follows; the placed stream must keep the good
// bytes and the TPDU must verify.
func TestCorruptedDuplicateCannotOverwrite(t *testing.T) {
	data := appData(1024, 55)
	var toRecv [][]byte
	s := NewSender(SenderConfig{CID: 6, MTU: 2048, ElemSize: 4, TPDUElems: 256},
		func(d []byte) { toRecv = append(toRecv, append([]byte(nil), d...)) })
	r, err := NewReceiver(ReceiverConfig{}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Deliver everything once (good copies)...
	for _, d := range toRecv {
		if err := r.HandlePacket(d); err != nil {
			t.Fatal(err)
		}
	}
	// ...then replay the data packet with corrupted payload bytes.
	for _, d := range toRecv {
		p, err := packet.Decode(d)
		if err != nil || len(p.Chunks) == 0 || p.Chunks[0].Type != chunk.TypeData {
			continue
		}
		bad := append([]byte(nil), d...)
		bad[len(bad)-1] ^= 0xFF
		bad[len(bad)-100] ^= 0xFF
		if err := r.HandlePacket(bad); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(r.Stream(), data) {
		t.Fatal("corrupted duplicate overwrote verified data")
	}
	if r.VerifiedCount() != 1 {
		t.Fatalf("verified %d TPDUs", r.VerifiedCount())
	}
}

// TestPoisonedFirstChunkRecovers: a corrupted T.SN on the FIRST
// fragment of a TPDU seeds wrong consistency baselines, so every
// genuine fragment is rejected. The receiver's stall escalation must
// reset the TPDU and let retransmissions rebuild it.
func TestPoisonedFirstChunkRecovers(t *testing.T) {
	data := appData(8192, 77)
	var toRecv, toSend [][]byte
	s := NewSender(SenderConfig{CID: 7, MTU: 512, ElemSize: 4, TPDUElems: 512},
		func(d []byte) { toRecv = append(toRecv, append([]byte(nil), d...)) })
	r, err := NewReceiver(ReceiverConfig{}, func(d []byte) {
		toSend = append(toSend, append([]byte(nil), d...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	poisoned := false
	var now time.Duration // virtual clock, advanced as the Pump does
	for round := 0; round < 80; round++ {
		out := toRecv
		toRecv = nil
		for _, d := range out {
			if !poisoned {
				// Flip a high byte of the first data chunk's T.SN so
				// the poisoned fragment seeds the TPDU state.
				if p, err := packet.Decode(d); err == nil && len(p.Chunks) > 0 &&
					p.Chunks[0].Type == chunk.TypeData {
					d[packet.HeaderSize+26] ^= 0x80 // T.SN offset 24..31
					poisoned = true
				}
			}
			if err := r.HandlePacket(d); err != nil {
				t.Fatal(err)
			}
		}
		in := toSend
		toSend = nil
		for _, d := range in {
			pk, err := packet.Decode(d)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pk.Chunks {
				if err := s.HandleControlAt(&pk.Chunks[i], now); err != nil {
					t.Fatal(err)
				}
			}
		}
		now += pumpTick
		r.Poll()
		if err := s.PollAt(now); err != nil {
			t.Fatal(err)
		}
		if s.Drained() && len(toRecv) == 0 && len(toSend) == 0 {
			break
		}
	}
	if !poisoned {
		t.Fatal("nothing was poisoned")
	}
	if !s.Drained() {
		t.Fatal("poisoned TPDU never recovered (stall escalation failed)")
	}
	if !bytes.Equal(r.Stream(), data) {
		t.Fatal("stream mismatch after recovery")
	}
}
