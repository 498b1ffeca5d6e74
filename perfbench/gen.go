package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"chunks/internal/chunk"
	"chunks/internal/core"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// elemSize is the element size every workload uses (core's default).
const elemSize = 4

// stream is a captured client-to-server datagram stream in send order;
// src[i] names which of the (at most two) client sockets sent dgrams[i].
type stream struct {
	dgrams [][]byte
	src    []int
}

// sendLog records one generator socket's sends for the traced run.
type sendLog struct {
	at []time.Duration
	d  [][]byte
}

func (l *sendLog) add(at time.Duration, ds ...[]byte) {
	if l == nil {
		return
	}
	for _, d := range ds {
		l.at = append(l.at, at)
		l.d = append(l.d, d)
	}
}

// merge interleaves the per-socket logs into one stream by send time.
func merge(into *stream, logs []*sendLog) {
	type ev struct {
		at  time.Duration
		src int
		d   []byte
	}
	var all []ev
	for s, l := range logs {
		for i := range l.d {
			all = append(all, ev{l.at[i], s, l.d[i]})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	for _, e := range all {
		into.dgrams = append(into.dgrams, e.d)
		into.src = append(into.src, e.src)
	}
}

// payload returns n seeded bytes.
func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// conn is one generated connection: its expected bytes and the
// datagrams transport.Sender emitted for them, grouped by TPDU.
type conn struct {
	cid   uint32
	data  []byte
	open  []byte     // the connection-open signal datagram
	tpdus [][][]byte // tpdus[i] holds TPDU i's datagrams, in emission order
}

// buildConn runs data through a transport.Sender and groups the emitted
// datagrams by the T.ID of the chunks they carry.
func buildConn(cid uint32, mtu, tpduElems int, data []byte) (*conn, error) {
	var out [][]byte
	s := transport.NewSender(transport.SenderConfig{CID: cid, MTU: mtu, ElemSize: elemSize, TPDUElems: tpduElems},
		func(d []byte) { out = append(out, d) })
	if err := s.Write(data); err != nil {
		return nil, err
	}
	if err := s.Flush(); err != nil {
		return nil, err
	}
	c := &conn{cid: cid, data: data}
	index := map[uint32]int{}
	for _, d := range out {
		p, err := packet.Decode(d)
		if err != nil || len(p.Chunks) == 0 {
			return nil, fmt.Errorf("sender emitted an undecodable datagram: %v", err)
		}
		first := p.Chunks[0]
		if first.Type == chunk.TypeSignal {
			c.open = d
			continue
		}
		i, ok := index[first.T.ID]
		if !ok {
			i = len(c.tpdus)
			index[first.T.ID] = i
			c.tpdus = append(c.tpdus, nil)
		}
		c.tpdus[i] = append(c.tpdus[i], d)
	}
	if c.open == nil {
		return nil, fmt.Errorf("conn %d: no open signal emitted", cid)
	}
	return c, nil
}

// tid returns the T.ID of TPDU i of a connection cut into tpduElems
// element TPDUs: the sender uses the TPDU's first element SN.
func tid(i, tpduElems int) uint32 { return uint32(i * tpduElems) }

// dialGen opens a client socket connected to the server.
func dialGen(addr net.Addr) (*net.UDPConn, error) {
	c, err := net.DialUDP("udp", nil, addr.(*net.UDPAddr))
	if err != nil {
		return nil, err
	}
	_ = c.SetReadBuffer(4 << 20)
	_ = c.SetWriteBuffer(4 << 20)
	return c, nil
}

// forAcks calls fn for every ACK chunk in a control datagram.
func forAcks(d []byte, dec *packet.Packet, fn func(cid, tid uint32)) {
	if packet.DecodeInto(d, dec) != nil {
		return
	}
	for i := range dec.Chunks {
		c := &dec.Chunks[i]
		if c.Type != chunk.TypeAck {
			continue
		}
		if t, err := transport.ParseAck(c); err == nil {
			fn(c.C.ID, t)
		}
	}
}

// server is one round's core.Serve instance with its telemetry and
// verdict counters.
type server struct {
	srv      *core.Server
	reg      *telemetry.Registry
	dgramsIn *telemetry.Counter
	ok, bad  atomic.Int64
}

// startServer starts core.Serve on loopback with default settings plus
// the verdict callback and telemetry the benchmark reads. onOK, when
// set, runs for every TPDU that verifies OK.
func startServer(onOK func(tid uint32)) (*server, error) {
	s := &server{reg: telemetry.New(0)}
	s.dgramsIn = s.reg.Scope("server").Counter("datagrams_in")
	srv, err := core.Serve("127.0.0.1:0", core.Config{
		Telemetry: s.reg,
		OnTPDU: func(tid uint32, v errdet.Verdict) {
			if v != errdet.VerdictOK {
				s.bad.Add(1)
				return
			}
			s.ok.Add(1)
			if onOK != nil {
				onOK(tid)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	return s, nil
}

// wscBytes sums the WSC-2 kernel byte counters of the receive scopes.
func (s *server) wscBytes() int64 {
	var n int64
	for name, sc := range s.reg.Snapshot().Scopes {
		if strings.HasPrefix(name, "recv.") {
			n += sc.Counters["wsc_bytes"]
		}
	}
	return n
}

// checkStream compares a delivered stream with the expected bytes.
func checkStream(got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("byte %d differs (got %#x, want %#x; %d of %d bytes delivered)", i, got[i], want[i], len(got), len(want))
		}
	}
	return fmt.Errorf("delivered %d bytes, want %d", len(got), len(want))
}

// flipCheck flips one seeded byte of want, asserts that checkStream
// against a verified copy of want now fails, and restores the byte.
func flipCheck(rng *rand.Rand, want []byte) error {
	got := append([]byte(nil), want...)
	i := rng.Intn(len(want))
	want[i] ^= 0xFF
	err := checkStream(got, want)
	want[i] ^= 0xFF
	if err == nil {
		return fmt.Errorf("flipping expected byte %d went undetected", i)
	}
	return nil
}

// addrPort is the source key core.Server uses for a client socket.
func addrPort(c *net.UDPConn) netip.AddrPort {
	return c.LocalAddr().(*net.UDPAddr).AddrPort()
}

// streamOf fetches a connection's delivered bytes.
func streamOf(s *server, cid uint32, sock *net.UDPConn) []byte {
	return s.srv.StreamOf(cid, sock.LocalAddr().String())
}
