package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chunks/internal/batch"
	"chunks/internal/packet"
)

// The fanin workload: 1024 connections multiplexed over 2 client
// sockets, one ~230 B datagram per 32-element TPDU, each connection
// ACK-clocked with one TPDU outstanding (closed loop).
const (
	faninConns     = 1024
	faninSockets   = 2
	faninTPDUs     = 32 // per connection per round
	faninTPDUElems = 32
	faninMTU       = 256
	faninResend    = 50 * time.Millisecond
	genSlots       = 64 // datagrams per sendmmsg/recvmmsg on the client side
	roundTimeout   = 30 * time.Second
)

type fanin struct {
	conns []*conn
	want  [][]byte // expected per connection; differs from conns[i].data only under --flip-byte
}

func newFanin(seed int64, flip bool) (*fanin, error) {
	f := &fanin{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < faninConns; i++ {
		data := make([]byte, faninTPDUs*faninTPDUElems*elemSize)
		rng.Read(data)
		c, err := buildConn(uint32(i+1), faninMTU, faninTPDUElems, data)
		if err != nil {
			return nil, err
		}
		if len(c.tpdus) != faninTPDUs {
			return nil, fmt.Errorf("conn %d: %d TPDUs, want %d", c.cid, len(c.tpdus), faninTPDUs)
		}
		for t, ds := range c.tpdus {
			if len(ds) != 1 {
				return nil, fmt.Errorf("conn %d TPDU %d: %d datagrams, want 1", c.cid, t, len(ds))
			}
		}
		f.conns = append(f.conns, c)
		f.want = append(f.want, data)
	}
	if flip {
		i := rng.Intn(faninConns)
		f.want[i] = append([]byte(nil), f.want[i]...)
		f.want[i][rng.Intn(len(f.want[i]))] ^= 0xFF
	}
	return f, nil
}

// faninConnState is the generator's view of one connection.
type faninConnState struct {
	next   int           // outstanding TPDU
	handed time.Duration // when the outstanding TPDU was handed to the socket first
	sentAt time.Duration // last (re)send of it
	done   bool
}

// faninGen is one generator goroutine's share: one socket and its
// connections.
type faninGen struct {
	f      *fanin
	sock   *net.UDPConn
	first  int // index of its first connection
	states []faninConnState
	log    *sendLog

	lat        []time.Duration
	sent       int64
	resends    int64
	acked      int64
	last       time.Duration
	firstAcked *atomic.Int64
	setupAt    *atomic.Int64
}

func (f *fanin) round(capture *stream) (*round, error) {
	rd := &round{conns: faninConns, attempted: faninConns * faninTPDUs,
		goodBytes: faninConns * faninTPDUs * faninTPDUElems * elemSize}
	base := liveHeap()
	drops0 := rcvbufErrors()
	t0 := time.Now()
	srv, err := startServer(nil)
	if err != nil {
		return nil, err
	}
	defer srv.srv.Shutdown()

	var firstAcked, setupAt atomic.Int64
	per := faninConns / faninSockets
	gens := make([]*faninGen, faninSockets)
	for g := range gens {
		sock, err := dialGen(srv.srv.Addr())
		if err != nil {
			return nil, err
		}
		defer sock.Close()
		gens[g] = &faninGen{f: f, sock: sock, first: g * per, states: make([]faninConnState, per),
			firstAcked: &firstAcked, setupAt: &setupAt}
		if capture != nil {
			gens[g].log = &sendLog{}
		}
	}

	cpu0 := cpuTime()
	spanStart := time.Since(t0)
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g *faninGen) {
			defer wg.Done()
			g.run(t0)
		}(g)
	}
	wg.Wait()
	rd.cpu = cpuTime() - cpu0
	rd.dgramsIn = srv.dgramsIn.Load()

	var acked int64
	var last time.Duration
	for _, g := range gens {
		rd.lat = append(rd.lat, g.lat...)
		rd.sent += g.sent
		rd.resends += g.resends
		acked += g.acked
		last = max(last, g.last)
	}
	rd.span = last - spanStart
	rd.setup = time.Duration(setupAt.Load())
	rd.failed = rd.attempted - acked
	rd.heapLive = liveHeap() - base
	rd.received = srv.dgramsIn.Load()
	rd.drops = dropsSince(drops0)
	rd.wscBytes = srv.wscBytes()
	if capture != nil {
		logs := make([]*sendLog, len(gens))
		for i, g := range gens {
			logs[i] = g.log
		}
		merge(capture, logs)
	}

	for i, c := range f.conns {
		g := gens[i/per]
		if err := checkStream(streamOf(srv, c.cid, g.sock), f.want[i]); err != nil {
			rd.mismatch = append(rd.mismatch, fmt.Sprintf("conn %d: %v", c.cid, err))
		}
	}
	if n := srv.bad.Load(); n > 0 {
		rd.mismatch = append(rd.mismatch, fmt.Sprintf("%d TPDU verdicts not OK", n))
	}
	if n := srv.ok.Load(); n != rd.attempted {
		rd.mismatch = append(rd.mismatch, fmt.Sprintf("%d TPDUs verified OK, want %d", n, rd.attempted))
	}
	return rd, nil
}

// run drives the generator's connections until every TPDU is ACKed or
// the round times out: an ACK for a connection's outstanding TPDU
// sends its next one, and a TPDU silent for faninResend is resent.
func (g *faninGen) run(t0 time.Time) {
	w := batch.NewWriter(g.sock, genSlots)
	r := batch.NewReader(g.sock, genSlots, 2048)
	var dec packet.Packet
	var queue [][]byte
	flush := func() {
		if len(queue) == 0 {
			return
		}
		_ = w.Write(queue) // loss is recovered by the resend timer
		g.sent += int64(len(queue))
		g.log.add(time.Since(t0), queue...)
		queue = queue[:0]
	}

	now := time.Since(t0)
	for i := range g.states {
		c := g.f.conns[g.first+i]
		queue = append(queue, c.open, c.tpdus[0][0])
		g.states[i] = faninConnState{handed: now, sentAt: now}
	}
	flush()

	remaining := len(g.states)
	lastScan := now
	deadline := now + roundTimeout
	onAck := func(cid, t uint32) {
		i := int(cid) - 1 - g.first
		if i < 0 || i >= len(g.states) {
			return
		}
		st := &g.states[i]
		if st.done || t != tid(st.next, faninTPDUElems) {
			return // a duplicate ACK after a resend
		}
		g.lat = append(g.lat, now-st.handed)
		g.acked++
		if st.next == 0 && g.firstAcked.Add(1) == faninConns {
			g.setupAt.Store(int64(now))
		}
		st.next++
		if st.next == faninTPDUs {
			st.done = true
			remaining--
			g.last = now
			return
		}
		queue = append(queue, g.f.conns[g.first+i].tpdus[st.next][0])
		st.handed, st.sentAt = now, now
	}
	for remaining > 0 && now < deadline {
		_ = g.sock.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		n, err := r.Read()
		now = time.Since(t0)
		if err == nil {
			for k := 0; k < n; k++ {
				forAcks(r.Datagram(k), &dec, onAck)
			}
		}
		flush()
		if now-lastScan < 10*time.Millisecond {
			continue
		}
		lastScan = now
		for i := range g.states {
			st := &g.states[i]
			if st.done || now-st.sentAt < faninResend {
				continue
			}
			c := g.f.conns[g.first+i]
			if st.next == 0 {
				queue = append(queue, c.open) // the open signal may be what was lost
			}
			queue = append(queue, c.tpdus[st.next][0])
			st.sentAt = now
			g.resends++
		}
		flush()
	}
}

func (f *fanin) replayInput(capture *stream) (*stream, map[uint32][]byte, error) {
	payloads := make(map[uint32][]byte, len(f.conns))
	for _, c := range f.conns {
		payloads[c.cid] = c.data
	}
	return capture, payloads, nil
}

func (f *fanin) selfTest(rng *rand.Rand) error {
	return flipCheck(rng, f.want[rng.Intn(len(f.want))])
}
