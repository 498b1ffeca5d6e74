package core

import (
	"bytes"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// oneTPDU returns a sender with one TPDU in flight and the datagrams
// it emitted (open signal included).
func oneTPDU(t *testing.T, cid uint32, reg *telemetry.Registry) (*transport.Sender, [][]byte) {
	t.Helper()
	var dgrams [][]byte
	s := transport.NewSender(transport.SenderConfig{CID: cid, TPDUElems: 16, Tel: reg.Sink(fmt.Sprintf("s%d", cid))},
		func(d []byte) { dgrams = append(dgrams, append([]byte(nil), d...)) })
	if err := s.Write(testData(64, int64(cid))); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Unacked() != 1 {
		t.Fatalf("conn %d: Unacked = %d, want 1", cid, s.Unacked())
	}
	return s, dgrams
}

// peerSocket opens a loopback socket standing in for a client.
func peerSocket(t *testing.T) (*net.UDPConn, netip.AddrPort) {
	t.Helper()
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, c.LocalAddr().(*net.UDPAddr).AddrPort()
}

// readEnvelope reads one datagram from c and decodes its chunks.
func readEnvelope(t *testing.T, c *net.UDPConn) []chunk.Chunk {
	t.Helper()
	buf := make([]byte, 65536)
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, _, err := c.ReadFromUDP(buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := packet.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	return p.Clone().Chunks
}

// TestSharedEnvelopeDemux: two connections with different C.IDs on one
// client socket get their ACKs in one shared envelope, and each sender
// acts only on its own ACK.
func TestSharedEnvelopeDemux(t *testing.T) {
	reg := telemetry.New(0)
	srv, err := Serve("127.0.0.1:0", Config{PollEvery: time.Hour, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cli, from := peerSocket(t)

	s1, d1 := oneTPDU(t, 1, reg)
	s2, d2 := oneTPDU(t, 2, reg)
	dgrams := append(d1, d2...)
	froms := make([]netip.AddrPort, len(dgrams))
	for i := range froms {
		froms[i] = from
	}
	srv.InjectBatch(dgrams, froms)

	chs := readEnvelope(t, cli)
	cids := map[uint32]int{}
	for _, c := range chs {
		if c.Type == chunk.TypeAck {
			cids[c.C.ID]++
		}
	}
	if len(chs) != 2 || cids[1] != 1 || cids[2] != 1 {
		t.Fatalf("envelope chunks = %v, want one ACK for each of C.ID 1 and 2", chs)
	}
	for _, s := range []*transport.Sender{s1, s2} {
		for i := range chs {
			if err := s.HandleControlAt(&chs[i], 0); err != nil {
				t.Fatal(err)
			}
		}
		if s.Unacked() != 0 {
			t.Errorf("conn %d: own ACK not applied, Unacked = %d", s.Config().CID, s.Unacked())
		}
	}
	snap := reg.Snapshot()
	for _, scope := range []string{"s1", "s2"} {
		if got := snap.Scopes[scope].Counters["control_foreign"]; got != 1 {
			t.Errorf("%s: control_foreign = %d, want 1", scope, got)
		}
	}
	if got := snap.Scopes["server"].Counters["ctrl_envelopes_out"]; got != 1 {
		t.Errorf("ctrl_envelopes_out = %d, want 1", got)
	}
}

// TestEgressOneSyscallPerBurst: the control of one burst goes out as
// one envelope per peer, in one sendmmsg, and every datagram is
// counted.
func TestEgressOneSyscallPerBurst(t *testing.T) {
	reg := telemetry.New(0)
	srv, err := Serve("127.0.0.1:0", Config{PollEvery: time.Hour, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	cliA, fromA := peerSocket(t)
	cliB, fromB := peerSocket(t)

	var dgrams [][]byte
	var froms []netip.AddrPort
	for cid := uint32(1); cid <= 6; cid++ {
		_, ds := oneTPDU(t, cid, reg)
		from := fromA
		if cid%2 == 0 {
			from = fromB
		}
		for _, d := range ds {
			dgrams = append(dgrams, d)
			froms = append(froms, from)
		}
	}
	dgrams = append(dgrams, []byte("not a chunk packet"))
	froms = append(froms, fromA)
	srv.InjectBatch(dgrams, froms)

	for _, cli := range []*net.UDPConn{cliA, cliB} {
		if chs := readEnvelope(t, cli); len(chs) != 3 {
			t.Errorf("peer envelope carries %d chunks, want 3 ACKs", len(chs))
		}
	}
	c := reg.Snapshot().Scopes["server"].Counters
	want := map[string]int64{
		"datagrams_in":          int64(len(dgrams) - 1),
		"datagrams_undecodable": 1,
		"ctrl_envelopes_out":    2,
		"ctrl_chunks_out":       6,
		"egress_early_flush":    0,
		"egress_syscalls":       2, // one write per envelope without sendmmsg
	}
	if srv.tickOb.w.Batched() {
		want["egress_syscalls"] = 1
	}
	for name, v := range want {
		if c[name] != v {
			t.Errorf("%s = %d, want %d", name, c[name], v)
		}
	}
}

// TestOutboxOverflowFlushesEarly: a burst whose control needs more
// envelopes than the outbox holds flushes in place, counts it, and
// loses nothing.
func TestOutboxOverflowFlushesEarly(t *testing.T) {
	reg := telemetry.New(0)
	got := map[string]int{}
	srv, err := Serve("127.0.0.1:0", Config{
		PollEvery: time.Hour, Telemetry: reg,
		ControlOut: func(d []byte, peer *net.UDPAddr) {
			p, err := packet.Decode(d)
			if err != nil {
				t.Fatal(err)
			}
			got[peer.String()] += len(p.Chunks)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	const peers = outboxSlots + 5
	var dgrams [][]byte
	var froms []netip.AddrPort
	for i := 0; i < peers; i++ {
		_, ds := oneTPDU(t, uint32(i+1), reg)
		for _, d := range ds {
			dgrams = append(dgrams, d)
			froms = append(froms, fakePeer(i))
		}
	}
	srv.InjectBatch(dgrams, froms)
	for i := 0; i < peers; i++ {
		if n := got[fakePeer(i).String()]; n != 1 {
			t.Errorf("peer %d got %d control chunks, want 1", i, n)
		}
	}
	c := reg.Snapshot().Scopes["server"].Counters
	if c["egress_early_flush"] != 1 || c["ctrl_envelopes_out"] != peers {
		t.Errorf("egress_early_flush = %d, ctrl_envelopes_out = %d; want 1, %d",
			c["egress_early_flush"], c["ctrl_envelopes_out"], peers)
	}
}

// TestOutboxZeroAlloc pins the steady egress path — adding an ACK
// datagram to the outbox and flushing it with sendmmsg — at zero
// allocations.
func TestOutboxZeroAlloc(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", Config{PollEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ob := newOutbox(srv.tickOb.egress)
	if !ob.w.Batched() {
		t.Skip("no sendmmsg path on this platform")
	}
	_, to := peerSocket(t)
	peer := net.UDPAddrFromAddrPort(to)
	ack := transport.Ack(1, 42)
	pk := packet.Packet{Chunks: []chunk.Chunk{ack}}
	d, err := pk.AppendTo(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	step := func() {
		for i := 0; i < 3; i++ {
			ob.add(d[packet.HeaderSize:], to, peer)
		}
		ob.flush()
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("outbox add+flush allocates %.1f objects, want 0", allocs)
	}
}

// TestServeDualStackAcksIPv4Peer: a server on the wildcard address
// (a dual-stack socket where the host has IPv6) must reach an IPv4
// peer with its ACKs.
func TestServeDualStackAcksIPv4Peer(t *testing.T) {
	srv, err := Serve(":0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	port := srv.Addr().(*net.UDPAddr).Port
	conn, err := Dial(fmt.Sprintf("127.0.0.1:%d", port), Config{CID: 3, TPDUElems: 64})
	if err != nil {
		t.Fatal(err)
	}
	data := testData(4096, 3)
	if err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if err := conn.WaitDrained(10 * time.Second); err != nil {
		t.Fatalf("IPv4 peer of a %s server never drained: %v", srv.Addr(), err)
	}
	if err := srv.WaitClosed(len(data), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(srv.Stream(), data) {
		t.Fatal("received stream differs from sent data")
	}
}

// TestConnAckEnvelopeZeroAlloc: the client's control path decodes an
// ACK-only envelope in place and applies it without allocating.
func TestConnAckEnvelopeZeroAlloc(t *testing.T) {
	_, to := peerSocket(t)
	const cid, elems, tpdus = 5, 16, 101
	c, err := Dial(to.String(), Config{CID: cid, TPDUElems: elems, PollEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Write(testData(tpdus*elems*4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.Unacked(); got != tpdus {
		t.Fatalf("Unacked = %d, want %d", got, tpdus)
	}
	envs := make([][]byte, tpdus)
	for i := range envs {
		p := packet.Packet{Chunks: []chunk.Chunk{transport.Ack(cid, uint32(i*elems))}}
		if envs[i], err = p.AppendTo(nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	var dec packet.Packet
	next := 0
	allocs := testing.AllocsPerRun(tpdus-1, func() {
		c.handleControl(envs[next], &dec)
		next++
	})
	if got := c.Unacked(); got != 0 {
		t.Fatalf("Unacked = %d after every ACK, want 0", got)
	}
	if allocs != 0 {
		t.Errorf("handling an ACK-only envelope allocates %.1f objects, want 0", allocs)
	}
}
