package transport

import (
	"testing"

	"chunks/internal/packet"
)

// steadyRecvRing is the RetireVerified window used by the steady-state
// receive harness: small enough that retirement (state recycling +
// stream trimming) runs every step of the measurement loop.
const steadyRecvRing = 8

// newSteadyRecvPair wires a real sender to a receiver through
// in-memory datagram queues, plus a step function driving one full
// TPDU through the receive path: write one TPDU's worth of elements,
// deliver the resulting datagrams (data + ED) to the receiver — which
// decodes in place, verifies end-to-end and emits an ACK — run a
// quiescent Poll round, then deliver the ACK datagrams back to the
// sender. Both sides recycle every datagram buffer they consume, and
// RetireVerified keeps per-TPDU, per-frame and stream state bounded,
// so after warmup a step touches only pooled records.
func newSteadyRecvPair(tb testing.TB) (s *Sender, r *Receiver, step func()) {
	tb.Helper()
	var data, acks [][]byte
	s = NewSender(SenderConfig{CID: 7, MTU: 1400, ElemSize: 4, TPDUElems: 256}, nil)
	s.out = func(d []byte) { data = append(data, d) }
	r, err := NewReceiver(ReceiverConfig{MTU: 1400, RetireVerified: steadyRecvRing}, func(d []byte) { acks = append(acks, d) })
	if err != nil {
		tb.Fatal(err)
	}

	payload := make([]byte, 256*4)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	var ackPkt packet.Packet // control decode scratch, reused per step
	step = func() {
		if err := s.Write(payload); err != nil {
			tb.Fatal(err)
		}
		for _, d := range data {
			if err := r.HandlePacket(d); err != nil {
				tb.Fatal(err)
			}
			s.Recycle(d)
		}
		data = data[:0]
		r.Poll() // quiescent round: sorted scan, no NACKs
		for _, d := range acks {
			if err := packet.DecodeInto(d, &ackPkt); err != nil {
				tb.Fatal(err)
			}
			for i := range ackPkt.Chunks {
				if err := s.HandleControlAt(&ackPkt.Chunks[i], 0); err != nil {
					tb.Fatal(err)
				}
			}
			r.Recycle(d)
		}
		acks = acks[:0]
	}
	return s, r, step
}

// TestSteadyStateRecvZeroAlloc pins the per-TPDU allocation count of
// the steady-state receive path — envelope decode, chunk ingest,
// incremental WSC-2 verification, placement, ACK emission, retirement
// — at zero once the pools are primed. It is the receive twin of
// TestSteadyStateSendZeroAlloc.
func TestSteadyStateRecvZeroAlloc(t *testing.T) {
	s, r, step := newSteadyRecvPair(t)
	for i := 0; i < 64; i++ { // prime pools, maps, scratch and the stream
		step()
	}
	before := r.VerifiedCount()
	allocs := testing.AllocsPerRun(100, step)
	if allocs != 0 && !raceEnabled {
		t.Errorf("steady-state receive path allocates %.1f objects per TPDU, want 0", allocs)
	}
	// Harness sanity: the measurement loop really verified TPDUs, acks
	// really drained, and retirement really bounded state.
	if got := r.VerifiedCount() - before; got < 100 {
		t.Fatalf("measurement loop verified %d TPDUs — the harness is broken", got)
	}
	if s.Unacked() > 1 {
		t.Fatalf("unacked backlog grew to %d; acks are not being consumed", s.Unacked())
	}
	if got := len(r.recs); got > steadyRecvRing+1 {
		t.Fatalf("retirement is not bounding receive state: %d TPDUs still tracked", got)
	}
	if r.StreamBase() == 0 {
		t.Fatal("retirement never trimmed the delivered stream")
	}
}

// TestRetireVerifiedOffKeepsState pins the historical default: with
// RetireVerified unset nothing is retired or trimmed, and the full
// stream stays addressable.
func TestRetireVerifiedOffKeepsState(t *testing.T) {
	var acks [][]byte
	s := NewSender(SenderConfig{CID: 7, MTU: 1400, ElemSize: 4, TPDUElems: 64}, nil)
	r, err := NewReceiver(ReceiverConfig{MTU: 1400}, func(d []byte) { acks = append(acks, d) })
	if err != nil {
		t.Fatal(err)
	}
	var dgrams [][]byte
	s.out = func(d []byte) { dgrams = append(dgrams, d) }
	payload := make([]byte, 64*4)
	for i := range payload {
		payload[i] = byte(i)
	}
	const rounds = 10
	for i := 0; i < rounds; i++ {
		if err := s.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil { // cut the lazily buffered last TPDU
		t.Fatal(err)
	}
	for _, d := range dgrams {
		if err := r.HandlePacket(d); err != nil {
			t.Fatal(err)
		}
	}
	if r.StreamBase() != 0 {
		t.Fatalf("StreamBase = %d with retirement off, want 0", r.StreamBase())
	}
	if got := r.VerifiedCount(); got != rounds {
		t.Fatalf("VerifiedCount = %d, want %d", got, rounds)
	}
	if got, want := len(r.Stream()), rounds*len(payload); got != want {
		t.Fatalf("stream length = %d, want %d (nothing trimmed)", got, want)
	}
	for tid := range r.recs {
		if !r.Verified(tid) {
			t.Fatalf("TPDU %d not verified", tid)
		}
	}
}

// BenchmarkSteadyStateRecv reports the allocation profile and cost of
// one full TPDU round trip through the receive path.
func BenchmarkSteadyStateRecv(b *testing.B) {
	s, r, step := newSteadyRecvPair(b)
	for i := 0; i < 64; i++ {
		step()
	}
	b.SetBytes(256 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	_, _ = s, r
}
