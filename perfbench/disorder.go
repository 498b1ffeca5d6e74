package main

import (
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chunks/internal/batch"
	"chunks/internal/chunk"
	"chunks/internal/packet"
)

// The disorder workload: 64 connections over 2 sockets, 16 KiB TPDUs
// whose datagrams go out in a seeded shuffled order, with duplicates
// (half of them re-split at another chunk boundary) and undecodable
// junk, sent open loop at a fixed offered rate.
const (
	disConns     = 64
	disSockets   = 2
	disTPDUs     = 32 // per connection per round
	disTPDUElems = 4096
	disMTU       = 1400
	disRate      = 30000 // offered datagrams per second, both sockets together
	disDupFrac   = 0.10
	disJunkFrac  = 0.01
	disResend    = 50 * time.Millisecond
	// disSlot is the pacing granularity: every datagram due within one
	// slot goes out at the slot's start in one sendmmsg, so the
	// generator sleeps in whole slots (the runtime's timers do not
	// wake reliably at finer grain).
	disSlot = time.Millisecond
)

// dueAt is when datagram k of a socket's schedule is due.
func dueAt(start, interval time.Duration, k int) time.Duration {
	return start + (time.Duration(k) * interval).Truncate(disSlot)
}

// disEntry is one scheduled datagram.
type disEntry struct {
	d    []byte
	conn int  // connection index; -1 for junk
	tpdu int  // TPDU index; -1 for the open signal and junk
	orig bool // one of the datagrams the sender emitted (not a duplicate)
	last bool // the TPDU's last original datagram: its due time is the TPDU's hand-off
}

type disorder struct {
	conns []*conn
	want  [][]byte
	sched [disSockets][]disEntry
	junk  int64 // junk datagrams per round
}

func newDisorder(seed int64, flip bool) (*disorder, error) {
	d := &disorder{}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < disConns; i++ {
		data := make([]byte, disTPDUs*disTPDUElems*elemSize)
		rng.Read(data)
		c, err := buildConn(uint32(i+1), disMTU, disTPDUElems, data)
		if err != nil {
			return nil, err
		}
		if len(c.tpdus) != disTPDUs {
			return nil, fmt.Errorf("conn %d: %d TPDUs, want %d", c.cid, len(c.tpdus), disTPDUs)
		}
		d.conns = append(d.conns, c)
		d.want = append(d.want, data)
	}
	per := disConns / disSockets
	for t := 0; t < disTPDUs; t++ {
		for i, c := range d.conns {
			s := &d.sched[i/per]
			if t == 0 {
				*s = append(*s, disEntry{d: c.open, conn: i, tpdu: -1})
			}
			seq, err := disorderTPDU(rng, i, t, c.tpdus[t])
			if err != nil {
				return nil, err
			}
			*s = append(*s, seq...)
		}
	}
	for _, s := range d.sched {
		for _, e := range s {
			if e.conn < 0 {
				d.junk++
			}
		}
	}
	if flip {
		i := rng.Intn(disConns)
		d.want[i] = append([]byte(nil), d.want[i]...)
		d.want[i][rng.Intn(len(d.want[i]))] ^= 0xFF
	}
	return d, nil
}

// disorderTPDU returns one TPDU's send sequence: its datagrams
// shuffled, disDupFrac of them duplicated somewhere after the original
// (half as exact copies, half re-split at a different chunk boundary),
// and junk inserted after disJunkFrac of the datagrams.
func disorderTPDU(rng *rand.Rand, ci, t int, orig [][]byte) ([]disEntry, error) {
	seq := make([]disEntry, len(orig))
	for k, i := range rng.Perm(len(orig)) {
		seq[k] = disEntry{d: orig[i], conn: ci, tpdu: t, orig: true}
	}
	for k := range orig {
		if rng.Float64() >= disDupFrac {
			continue
		}
		o := seq[k].d
		pos := slices.IndexFunc(seq, func(e disEntry) bool { return e.orig && &e.d[0] == &o[0] })
		dups := [][]byte{o}
		if rng.Intn(2) == 1 {
			var err error
			if dups, err = resplit(rng, o); err != nil {
				return nil, err
			}
		}
		for _, dd := range dups {
			at := pos + 1 + rng.Intn(len(seq)-pos)
			seq = slices.Insert(seq, at, disEntry{d: dd, conn: ci, tpdu: t})
		}
	}
	lastOrig := 0
	for k, e := range seq {
		if e.orig {
			lastOrig = k
		}
	}
	seq[lastOrig].last = true
	var out []disEntry
	for _, e := range seq {
		out = append(out, e)
		if rng.Float64() < disJunkFrac {
			out = append(out, disEntry{d: junk(rng), conn: -1, tpdu: -1})
		}
	}
	return out, nil
}

// resplit re-sends a datagram's data chunks cut at a random element
// boundary (chunk.Split, Appendix C), one piece per datagram.
func resplit(rng *rand.Rand, d []byte) ([][]byte, error) {
	p, err := packet.Decode(d)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for i := range p.Chunks {
		c := &p.Chunks[i]
		if c.Type != chunk.TypeData {
			continue
		}
		if c.Len < 2 {
			out = append(out, d)
			continue
		}
		a, b, err := c.Split(1 + uint32(rng.Intn(int(c.Len)-1)))
		if err != nil {
			return nil, err
		}
		for _, piece := range []chunk.Chunk{a, b} {
			pk := packet.Packet{Chunks: []chunk.Chunk{piece}}
			enc, err := pk.AppendTo(nil, 0)
			if err != nil {
				return nil, err
			}
			out = append(out, enc)
		}
	}
	if len(out) == 0 {
		out = append(out, d) // the ED-only datagram: duplicate it as is
	}
	return out, nil
}

// junk returns an undecodable datagram: a bad magic byte, or a valid
// envelope header whose length field overruns the datagram.
func junk(rng *rand.Rand) []byte {
	b := make([]byte, 16+rng.Intn(200))
	rng.Read(b)
	if rng.Intn(2) == 0 {
		b[0] = packet.Magic ^ 0xFF
		return b
	}
	b[0], b[1] = packet.Magic, packet.Version
	n := len(b) + 1 + rng.Intn(100)
	b[2], b[3] = byte(n>>8), byte(n)
	return b
}

// disGen is one generator socket: its sender goroutine paces the
// schedule, its reader goroutine collects ACKs.
type disGen struct {
	sock  *net.UDPConn
	sched []disEntry
	log   *sendLog
	lag   []time.Duration
	sent  int64
	resnd int64
}

func (d *disorder) round(capture *stream) (*round, error) {
	rd := &round{conns: disConns, attempted: disConns * disTPDUs, junk: d.junk,
		goodBytes: disConns * disTPDUs * disTPDUElems * elemSize}
	base := liveHeap()
	drops0 := rcvbufErrors()
	t0 := time.Now()
	srv, err := startServer(nil)
	if err != nil {
		return nil, err
	}
	defer srv.srv.Shutdown()

	interval := time.Second * disSockets / disRate
	// due and ackAt are per TPDU, in ns since t0 (ackAt 0: not yet).
	due := make([]time.Duration, disConns*disTPDUs)
	ackAt := make([]atomic.Int64, disConns*disTPDUs)
	var acked, firstAcked, setupAt atomic.Int64

	gens := make([]*disGen, disSockets)
	for g := range gens {
		sock, err := dialGen(srv.srv.Addr())
		if err != nil {
			return nil, err
		}
		defer sock.Close()
		gens[g] = &disGen{sock: sock, sched: d.sched[g]}
		if capture != nil {
			gens[g].log = &sendLog{}
		}
	}
	spanStart := time.Since(t0) + time.Millisecond
	for _, g := range gens {
		for k, e := range g.sched {
			if e.last {
				due[e.conn*disTPDUs+e.tpdu] = dueAt(spanStart, interval, k)
			}
		}
	}

	cpu0 := cpuTime()
	stop := make(chan struct{})
	var senders, readers sync.WaitGroup
	for _, g := range gens {
		readers.Add(1)
		go func(g *disGen) {
			defer readers.Done()
			r := batch.NewReader(g.sock, genSlots, 2048)
			var dec packet.Packet
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = g.sock.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
				n, err := r.Read()
				if err != nil {
					continue
				}
				now := int64(time.Since(t0))
				for k := 0; k < n; k++ {
					forAcks(r.Datagram(k), &dec, func(cid, t uint32) {
						ci, ti := int(cid)-1, int(t)/disTPDUElems
						if ci < 0 || ci >= disConns || ti >= disTPDUs || t%disTPDUElems != 0 {
							return
						}
						if !ackAt[ci*disTPDUs+ti].CompareAndSwap(0, now) {
							return
						}
						acked.Add(1)
						if ti == 0 && firstAcked.Add(1) == disConns {
							setupAt.Store(now)
						}
					})
				}
			}
		}(g)
		senders.Add(1)
		go func(g *disGen) {
			defer senders.Done()
			g.send(d, t0, spanStart, interval, ackAt)
		}(g)
	}
	senders.Wait()
	close(stop)
	readers.Wait()
	rd.cpu = cpuTime() - cpu0
	rd.dgramsIn = srv.dgramsIn.Load()

	var last time.Duration
	for i := range ackAt {
		at := time.Duration(ackAt[i].Load())
		if at == 0 {
			continue
		}
		last = max(last, at)
		rd.lat = append(rd.lat, at-due[i])
	}
	for _, g := range gens {
		rd.lag = append(rd.lag, g.lag...)
		rd.sent += g.sent
		rd.resends += g.resnd
	}
	rd.span = last - spanStart
	rd.setup = time.Duration(setupAt.Load())
	rd.failed = rd.attempted - acked.Load()
	rd.heapLive = liveHeap() - base
	rd.received = srv.dgramsIn.Load()
	rd.drops = dropsSince(drops0)
	rd.wscBytes = srv.wscBytes()
	if capture != nil {
		merge(capture, []*sendLog{gens[0].log, gens[1].log})
	}

	per := disConns / disSockets
	for i, c := range d.conns {
		if err := checkStream(streamOf(srv, c.cid, gens[i/per].sock), d.want[i]); err != nil {
			rd.mismatch = append(rd.mismatch, fmt.Sprintf("conn %d: %v", c.cid, err))
		}
	}
	if n := srv.bad.Load(); n > 0 {
		rd.mismatch = append(rd.mismatch, fmt.Sprintf("%d TPDU verdicts not OK (WSC-2 false alarms on disordered data)", n))
	}
	if n := srv.ok.Load(); n != rd.attempted {
		rd.mismatch = append(rd.mismatch, fmt.Sprintf("%d TPDUs verified OK, want %d", n, rd.attempted))
	}
	return rd, nil
}

// send paces the schedule: datagram k is due at dueAt(start, interval,
// k) and goes out with every other datagram already due in one
// sendmmsg. Once
// the schedule is done it resends, every disResend, the original
// datagrams of TPDUs still unACKed, until all are ACKed or the round
// times out.
func (g *disGen) send(d *disorder, t0 time.Time, start, interval time.Duration, ackAt []atomic.Int64) {
	w := batch.NewWriter(g.sock, genSlots)
	var out [][]byte
	for k := 0; k < len(g.sched); {
		now := time.Since(t0)
		if due := dueAt(start, interval, k); due > now {
			time.Sleep(due - now)
			continue
		}
		out = out[:0]
		j := k
		for j < len(g.sched) && j-k < genSlots && dueAt(start, interval, j) <= now {
			out = append(out, g.sched[j].d)
			j++
		}
		_ = w.Write(out) // loss is recovered below
		sentAt := time.Since(t0)
		g.log.add(sentAt, out...)
		for i := k; i < j; i++ {
			g.lag = append(g.lag, sentAt-dueAt(start, interval, i))
		}
		g.sent += int64(j - k)
		k = j
	}

	deadline := time.Since(t0) + roundTimeout
	for time.Since(t0) < deadline {
		time.Sleep(disResend)
		out = out[:0]
		pending := false
		for _, e := range g.sched {
			if e.tpdu < 0 || !e.last {
				continue
			}
			if ackAt[e.conn*disTPDUs+e.tpdu].Load() != 0 {
				continue
			}
			pending = true
			c := d.conns[e.conn]
			if e.tpdu == 0 {
				out = append(out, c.open)
			}
			out = append(out, c.tpdus[e.tpdu]...)
			g.resnd++
		}
		if !pending {
			return
		}
		_ = w.Write(out)
		g.log.add(time.Since(t0), out...)
		g.sent += int64(len(out))
	}
}

func (d *disorder) replayInput(capture *stream) (*stream, map[uint32][]byte, error) {
	payloads := make(map[uint32][]byte, len(d.conns))
	for _, c := range d.conns {
		payloads[c.cid] = c.data
	}
	return capture, payloads, nil
}

func (d *disorder) selfTest(rng *rand.Rand) error {
	return flipCheck(rng, d.want[rng.Intn(len(d.want))])
}
