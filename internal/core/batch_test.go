package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"reflect"
	"sort"
	"testing"
	"time"

	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// genBatchWorkload builds a seeded multi-connection datagram schedule:
// nConns senders each write several multi-datagram TPDUs, and the
// per-connection datagrams are interleaved round-robin the way a busy
// socket mixes peers. froms[i] is the source of dgrams[i].
func genBatchWorkload(t *testing.T, nConns, writes int) (dgrams [][]byte, froms []netip.AddrPort) {
	t.Helper()
	perConn := make([][][]byte, nConns)
	for c := 0; c < nConns; c++ {
		var out [][]byte
		s := transport.NewSender(transport.SenderConfig{
			CID: uint32(c + 1), MTU: 1400, ElemSize: 4, TPDUElems: 1024,
		}, func(d []byte) { out = append(out, append([]byte(nil), d...)) })
		rng := rand.New(rand.NewSource(int64(1000 + c)))
		buf := make([]byte, 512)
		for w := 0; w < writes; w++ {
			rng.Read(buf)
			if err := s.Write(buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		perConn[c] = out
	}
	for i := 0; ; i++ {
		progressed := false
		for c := 0; c < nConns; c++ {
			if i < len(perConn[c]) {
				dgrams = append(dgrams, perConn[c][i])
				froms = append(froms, batchFrom(c))
				progressed = true
			}
		}
		if !progressed {
			return dgrams, froms
		}
	}
}

func batchFrom(c int) netip.AddrPort {
	return netip.MustParseAddrPort(fmt.Sprintf("10.9.0.%d:4242", c+1))
}

// batchRun is everything TestBatchDeterminism compares across
// ingestion widths.
type batchRun struct {
	streams map[uint32][]byte
	tel     string   // telemetry snapshot minus the egress counters
	control []string // control chunks sent, "peer type C.ID T.ID payload", sorted
}

// egressCounters are the server counters that legitimately depend on
// the burst width: how control chunks share envelopes and syscalls.
var egressCounters = []string{"ctrl_envelopes_out", "egress_syscalls", "egress_early_flush"}

// runBatchInjection drives the full workload through a fresh server in
// bursts of batchSize datagrams (batchSize 0 is the one-datagram
// reference: one InjectBatch call per datagram) and returns the
// per-connection streams, the telemetry snapshot serialized for
// comparison, and the multiset of control chunks the server sent. PollEvery is huge so injection order alone
// drives every observable.
func runBatchInjection(t *testing.T, dgrams [][]byte, froms []netip.AddrPort, nConns, batchSize int) batchRun {
	t.Helper()
	reg := telemetry.New(0)
	var control []string
	srv, err := Serve("127.0.0.1:0", Config{
		Shards:    4,
		Telemetry: reg,
		PollEvery: time.Hour,
		ControlOut: func(d []byte, peer *net.UDPAddr) {
			p, err := packet.Decode(d)
			if err != nil {
				t.Errorf("undecodable control envelope: %v", err)
				return
			}
			for _, c := range p.Chunks {
				control = append(control, fmt.Sprintf("%s %v %d %d %x", peer, c.Type, c.C.ID, c.T.ID, c.Payload))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()

	width := max(batchSize, 1)
	for i := 0; i < len(dgrams); i += width {
		end := min(i+width, len(dgrams))
		srv.InjectBatch(dgrams[i:end], froms[i:end])
	}

	run := batchRun{streams: make(map[uint32][]byte, nConns), control: control}
	sort.Strings(run.control)
	for c := 0; c < nConns; c++ {
		cid := uint32(c + 1)
		st := srv.StreamOf(cid, addrKey(batchFrom(c)))
		if len(st) == 0 {
			t.Fatalf("batchSize=%d: connection %d has no stream", batchSize, cid)
		}
		run.streams[cid] = st
	}
	snap := reg.Snapshot()
	for _, name := range egressCounters {
		if _, ok := snap.Scopes["server"].Counters[name]; !ok {
			t.Fatalf("server counter %s missing", name)
		}
		delete(snap.Scopes["server"].Counters, name)
	}
	tel, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	run.tel = string(tel)
	return run
}

// TestBatchDeterminism pins that the batch width of the ingestion path
// is invisible to the protocol: the same seeded datagram schedule
// produces byte-identical streams, an identical telemetry snapshot
// (all but the envelope and syscall counters) and the same multiset of
// ACK/NACK chunks whether datagrams arrive one at a time or in bursts
// of 1, 8 or 64, on fresh servers. Only how the control chunks share
// envelopes may differ.
func TestBatchDeterminism(t *testing.T) {
	const nConns = 4
	dgrams, froms := genBatchWorkload(t, nConns, 40)

	ref := runBatchInjection(t, dgrams, froms, nConns, 0)
	if len(ref.control) == 0 {
		t.Fatal("no control chunks captured")
	}
	for _, batchSize := range []int{1, 8, 64} {
		run := runBatchInjection(t, dgrams, froms, nConns, batchSize)
		for cid, want := range ref.streams {
			if got := string(run.streams[cid]); got != string(want) {
				t.Errorf("batchSize=%d: connection %d stream diverges from the one-datagram reference (%d vs %d bytes)",
					batchSize, cid, len(got), len(want))
			}
		}
		if run.tel != ref.tel {
			t.Errorf("batchSize=%d: telemetry snapshot diverges from the one-datagram reference:\n got %s\nwant %s",
				batchSize, run.tel, ref.tel)
		}
		if !reflect.DeepEqual(run.control, ref.control) {
			t.Errorf("batchSize=%d: control chunks diverge from the one-datagram reference:\n got %v\nwant %v",
				batchSize, run.control, ref.control)
		}
	}
}

// TestReadLoopClosedSocket is the regression test for the read-loop
// error handling: a socket that fails permanently (closed underneath
// the server) must count recv_sock_err and END the reader goroutines
// rather than spinning on the dead descriptor, and Shutdown must still
// return promptly afterwards. Covers 1-slot and 32-slot bursts.
func TestReadLoopClosedSocket(t *testing.T) {
	for _, recvBatch := range []int{1, 32} {
		t.Run(fmt.Sprintf("recvBatch=%d", recvBatch), func(t *testing.T) {
			reg := telemetry.New(0)
			srv, err := Serve("127.0.0.1:0", Config{
				Telemetry: reg,
				Readers:   2,
				RecvBatch: recvBatch,
			})
			if err != nil {
				t.Fatal(err)
			}
			_ = srv.sock.Close()

			deadline := time.Now().Add(5 * time.Second)
			for reg.Snapshot().Scopes["server"].Counters["recv_sock_err"] < 2 {
				if time.Now().After(deadline) {
					t.Fatalf("readers did not observe the closed socket; recv_sock_err=%d",
						reg.Snapshot().Scopes["server"].Counters["recv_sock_err"])
				}
				time.Sleep(5 * time.Millisecond)
			}

			done := make(chan struct{})
			go func() { srv.Shutdown(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("Shutdown hung after the socket was closed")
			}
		})
	}
}
