package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"chunks/internal/core"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// The bulk workload: one core.Dial connection with chunksend's
// defaults (MTU 1400, 4096-element TPDUs, Window 24) writing a seeded
// payload in 64 KiB Writes, closed loop.
const (
	bulkBytes     = 24 << 20
	bulkWrite     = 64 << 10
	bulkTPDUElems = 4096
	bulkTPDUBytes = bulkTPDUElems * elemSize
	bulkTPDUs     = bulkBytes / bulkTPDUBytes
	bulkWindow    = 24
	bulkCID       = 1
)

type bulk struct {
	data []byte // sent
	want []byte // expected; differs from data only under --flip-byte
}

func newBulk(seed int64, flip bool) *bulk {
	b := &bulk{data: payload(seed, bulkBytes)}
	b.want = b.data
	if flip {
		b.want = append([]byte(nil), b.data...)
		b.want[rand.New(rand.NewSource(seed)).Intn(len(b.want))] ^= 0xFF
	}
	return b
}

func (b *bulk) round(_ *stream) (*round, error) {
	rd := &round{conns: 1, attempted: bulkTPDUs, goodBytes: bulkBytes}
	okAt := make([]atomic.Int64, bulkTPDUs) // ns since t0, 0 until verified
	var verified atomic.Int64
	done := make(chan struct{})
	var doneOnce sync.Once

	base := liveHeap()
	drops0 := rcvbufErrors()
	t0 := time.Now()
	srv, err := startServer(func(tid uint32) {
		if i := int(tid) / bulkTPDUElems; i < bulkTPDUs {
			okAt[i].Store(int64(time.Since(t0)))
		}
		if verified.Add(1) == bulkTPDUs {
			doneOnce.Do(func() { close(done) })
		}
	})
	if err != nil {
		return nil, err
	}
	defer srv.srv.Shutdown()
	creg := telemetry.New(0)
	c, err := core.Dial(srv.srv.Addr().String(), core.Config{
		CID: bulkCID, TPDUElems: bulkTPDUElems, Window: bulkWindow, Telemetry: creg,
	})
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()

	cpu0 := cpuTime()
	spanStart := time.Since(t0)
	writeAt := make([]time.Duration, bulkBytes/bulkWrite)
	for i := range writeAt {
		writeAt[i] = time.Since(t0)
		if err := c.Write(b.data[i*bulkWrite : (i+1)*bulkWrite]); err != nil {
			return nil, fmt.Errorf("write: %w", err)
		}
	}
	if err := c.Flush(); err != nil {
		return nil, fmt.Errorf("flush: %w", err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
	}
	rd.cpu = cpuTime() - cpu0
	rd.dgramsIn = srv.dgramsIn.Load()
	last := time.Duration(0)
	for i := range okAt {
		at := time.Duration(okAt[i].Load())
		if at == 0 {
			continue
		}
		last = max(last, at)
		// A TPDU is handed to the program by the Write that carries
		// its last byte.
		rd.lat = append(rd.lat, at-writeAt[((i+1)*bulkTPDUBytes-1)/bulkWrite])
	}
	rd.setup = time.Duration(okAt[0].Load())
	rd.span = last - spanStart

	if err := c.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	drainErr := c.WaitDrained(10 * time.Second)
	rd.failed = bulkTPDUs - verified.Load()
	if drainErr != nil {
		rd.failed = max(rd.failed, int64(c.Unacked()))
		rd.mismatch = append(rd.mismatch, "drain: "+drainErr.Error())
	}
	rd.heapLive = liveHeap() - base
	rd.received = srv.dgramsIn.Load()
	rd.drops = dropsSince(drops0)
	cs := creg.Snapshot().Scopes[fmt.Sprintf("conn.%d", bulkCID)]
	rd.sent = cs.Histograms["datagram_bytes"].Count
	rd.stalls = cs.Counters["window_stalls"]
	_, retx := c.Stats()
	rd.resends = int64(retx)
	rd.wscBytes = srv.wscBytes()

	if err := checkStream(srv.srv.StreamOf(bulkCID, c.LocalAddr().String()), b.want); err != nil {
		rd.mismatch = append(rd.mismatch, "stream: "+err.Error())
	}
	if n := srv.bad.Load(); n > 0 {
		rd.mismatch = append(rd.mismatch, fmt.Sprintf("%d TPDU verdicts not OK", n))
	}
	return rd, nil
}

// replayInput regenerates the datagram stream core.Conn emits for the
// payload (without retransmissions) through a transport.Sender
// configured as core.Dial configures it.
func (b *bulk) replayInput(_ *stream) (*stream, map[uint32][]byte, error) {
	st := &stream{}
	s := transport.NewSender(bulkSenderConfig(), func(d []byte) {
		st.dgrams = append(st.dgrams, append([]byte(nil), d...))
		st.src = append(st.src, 0)
	})
	for off := 0; off < len(b.data); off += bulkWrite {
		if err := s.Write(b.data[off : off+bulkWrite]); err != nil {
			return nil, nil, err
		}
	}
	if err := s.Flush(); err != nil {
		return nil, nil, err
	}
	return st, map[uint32][]byte{bulkCID: b.data}, nil
}

func bulkSenderConfig() transport.SenderConfig {
	return transport.SenderConfig{CID: bulkCID, MTU: 1400, ElemSize: elemSize, TPDUElems: bulkTPDUElems}
}

func (b *bulk) selfTest(rng *rand.Rand) error { return flipCheck(rng, b.want) }
