package transport

import (
	"testing"
	"testing/quick"

	"chunks/internal/chunk"
)

// TestParseControlArbitraryPayloads: the control codecs must reject
// malformed payloads without panicking, for every control type.
func TestParseControlArbitraryPayloads(t *testing.T) {
	f := func(typ uint8, payload []byte, cid uint32) bool {
		ct := chunk.Type(1 + typ%5)
		size := uint16(len(payload))
		if size == 0 {
			size = 1
			payload = []byte{0}
		}
		c := chunk.Chunk{Type: ct, Size: size, Len: 1, C: chunk.Tuple{ID: cid}, Payload: payload}
		// None of these may panic; errors are fine.
		_, _ = ParseSignal(&c)
		_, _ = ParseAck(&c)
		_, _, _ = ParseNack(&c)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestReceiverArbitraryPackets: the transport receiver must survive
// arbitrary datagrams (decode errors surface; nothing panics, and
// valid-but-nonsense chunks at most create pending TPDU state).
func TestReceiverArbitraryPackets(t *testing.T) {
	r, err := NewReceiver(ReceiverConfig{}, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	f := func(b []byte) bool {
		_ = r.HandlePacket(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestSenderArbitraryControl: the sender must survive arbitrary
// control chunks.
func TestSenderArbitraryControl(t *testing.T) {
	s := NewSender(SenderConfig{CID: 1}, func([]byte) {})
	if err := s.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	f := func(typ uint8, payload []byte, tid uint32) bool {
		ct := chunk.Type(1 + typ%5)
		size := uint16(len(payload))
		if size == 0 {
			size = 1
			payload = []byte{0}
		}
		c := chunk.Chunk{Type: ct, Size: size, Len: 1, T: chunk.Tuple{ID: tid}, Payload: payload}
		_ = s.HandleControlAt(&c, 0) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// FuzzTransferLossMatrix drives a whole transfer under fuzzed loss
// parameters and insists on eventual byte-exact delivery.
func FuzzTransferLossMatrix(f *testing.F) {
	f.Add(uint8(10), uint8(20), int64(1))
	f.Add(uint8(0), uint8(0), int64(2))
	f.Fuzz(func(t *testing.T, lossData, lossCtrl uint8, seed int64) {
		ld := float64(lossData%50) / 100
		lc := float64(lossCtrl%50) / 100
		p, err := NewPump(
			SenderConfig{CID: 1, MTU: 256, ElemSize: 4, TPDUElems: 32},
			ReceiverConfig{},
			PumpConfig{Seed: seed, LossData: ld, LossCtrl: lc, Reorder: true, MaxRounds: 3000})
		if err != nil {
			t.Fatal(err)
		}
		data := appData(2048, seed)
		if err := p.S.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := p.S.Close(); err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Drained {
			t.Fatalf("loss (%.2f,%.2f) seed %d never drained", ld, lc, seed)
		}
		if string(p.R.Stream()) != string(data) {
			t.Fatal("stream mismatch")
		}
	})
}
