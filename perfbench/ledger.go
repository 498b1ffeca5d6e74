package main

import (
	"bufio"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"chunks/internal/batch"
	"chunks/internal/chunk"
	"chunks/internal/core"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/shard"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
	"chunks/internal/vr"
)

// The traced run replays a prefix of the captured stream, bounded so
// that one replay stays well under a second.
const (
	replayMaxDgrams = 20000
	replayMaxBytes  = 16 << 20
	replayBurst     = 64 // datagrams per Writer.Write and per InjectBatch call
	replayReps      = 5  // repetitions; the ledger reports medians
)

// Span names: one per layer boundary the benchmark times from outside.
const (
	spDgram  = iota // one datagram through decode, demux and the receiver
	spDecode        // packet.DecodeInto
	spRoute         // shard.Engine.Shard + Shard.Lock/Get/Establish/Touch/ArmPoll/Unlock
	spHandle        // transport.Receiver.HandleChunk
	spAck           // the receiver's out callback: WriteToUDP of a control datagram
	spRead          // batch.Reader.Read
	spWrite         // batch.Writer.Write
	spErrdet        // errdet.Receiver.IngestPlaced
	spVR            // vr.Tracker.AddChecked
	spSender        // transport.Sender.Write (and the final Flush)
	nSpans
)

var spanNames = [nSpans]string{
	"dgram", "packet.DecodeInto", "shard.route", "transport.Receiver.HandleChunk",
	"transport.out.WriteToUDP", "batch.Reader.Read", "batch.Writer.Write",
	"errdet.Receiver.IngestPlaced", "vr.Tracker.AddChecked", "transport.Sender.Write",
}

// span is one timed call: name, start, end and the span that caused it.
type span struct {
	name       uint8
	parent     int32
	start, end time.Duration
}

// tracer keeps spans in memory; a disabled tracer records nothing.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool, capHint int) *tracer {
	t := &tracer{on: on, epoch: time.Now()}
	if on {
		t.spans = make([]span, 0, capHint)
	}
	return t
}

func (t *tracer) begin(name uint8, parent int32) int32 {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = time.Since(t.epoch)
	}
}

// self returns, per span name, the summed self time (duration minus
// the time its child spans cover) and the span count. Each span's self
// time is corrected by the tracer's own cost as calibrate measured it:
// floor for the span itself and perChild for every child it opened.
func (t *tracer) self(floor, perChild time.Duration) (tot [nSpans]time.Duration, cnt [nSpans]int64) {
	child := make([]time.Duration, len(t.spans))
	kids := make([]int32, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
			kids[s.parent]++
		}
	}
	for i, s := range t.spans {
		tot[s.name] += s.end - s.start - child[i] - floor - time.Duration(kids[i])*perChild
		cnt[s.name]++
	}
	return tot, cnt
}

// calibrate measures the tracer's own cost in self time: floor is the
// self time of an empty span, perChild what each empty child span adds
// to its parent's self time.
func calibrate() (floor, perChild time.Duration) {
	const n = 20000
	t := newTracer(true, 3*n)
	for i := 0; i < n; i++ {
		p := t.begin(spDgram, -1)
		t.end(t.begin(spDecode, p))
		t.end(t.begin(spDecode, p))
		t.end(p)
	}
	tot, _ := t.self(0, 0)
	floor = tot[spDecode] / (2 * n)
	perChild = (tot[spDgram]/n - floor) / 2
	return floor, perChild
}

// write stores the spans as CSV: id, name, parent, start and end in ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,parent,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d\n", i, spanNames[s.name], s.parent, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shape is how a workload's sender cuts its payload.
type shape struct {
	mtu, tpduElems, writeBytes int
}

var shapes = map[string]shape{
	"bulk":     {1400, bulkTPDUElems, bulkWrite},
	"fanin":    {faninMTU, faninTPDUElems, faninTPDUElems * elemSize},
	"disorder": {disMTU, disTPDUElems, disTPDUElems * elemSize},
}

// replay holds the stream prefix and the sockets the replays share.
type replay struct {
	dgrams   [][]byte
	src      []int
	froms    []netip.AddrPort // replay source per datagram: a sink socket
	pkts     []packet.Packet  // pre-decoded; Chunks nil for junk
	payloads map[uint32][]byte
	shape    shape

	sinks   []*net.UDPConn // stand-ins for the client sockets; never read
	ackSock *net.UDPConn   // the replay server's socket for control egress
}

func newReplay(name string, in *stream, payloads map[uint32][]byte) (*replay, error) {
	e := &replay{payloads: payloads, shape: shapes[name]}
	bytes := 0
	for i, d := range in.dgrams {
		if i >= replayMaxDgrams || bytes+len(d) > replayMaxBytes {
			break
		}
		bytes += len(d)
		e.dgrams = append(e.dgrams, d)
		e.src = append(e.src, in.src[i])
	}
	if len(e.dgrams) == 0 {
		return nil, fmt.Errorf("empty capture")
	}
	var err error
	if e.ackSock, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
		return nil, err
	}
	_ = e.ackSock.SetWriteBuffer(4 << 20)
	for i := range e.dgrams {
		for len(e.sinks) <= e.src[i] {
			s, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				e.close()
				return nil, err
			}
			e.sinks = append(e.sinks, s)
		}
		e.froms = append(e.froms, addrPort(e.sinks[e.src[i]]))
		p, err := packet.Decode(e.dgrams[i])
		if err != nil {
			p = packet.Packet{}
		}
		e.pkts = append(e.pkts, p)
	}
	return e, nil
}

func (e *replay) close() {
	for _, s := range e.sinks {
		s.Close()
	}
	if e.ackSock != nil {
		e.ackSock.Close()
	}
}

// timed runs fn with the collector off and reports its wall and CPU
// time; the previous replay's garbage is collected first, so no
// collection lands inside the measurement.
func timed(fn func()) (wall, cpu time.Duration) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(old)
	c0, t0 := cpuTime(), time.Now()
	fn()
	return time.Since(t0), cpuTime() - c0
}

// rconn is the replay's connection record, as core's serverConn.
type rconn struct {
	r    *transport.Receiver
	peer *net.UDPAddr
}

func noVerdict(uint32, errdet.Verdict) {}

// pipeline replays the stream through the receive layers the way
// core.Server's ingestion does — DecodeInto, (C.ID, source) demux on a
// shard.Engine, transport.Receiver.HandleChunk with the out callback
// doing WriteToUDP — timing each layer. It returns the chunks handled
// and control datagrams sent.
func (e *replay) pipeline(tr *tracer) (chunks, acks int64) {
	reg := telemetry.New(0)
	dgramsIn := reg.Sink("server").Counter("datagrams_in")
	eng := shard.New(shard.Config[*rconn]{Poll: func(shard.Key, *rconn) bool { return false }})
	sinks := make([]telemetry.Sink, eng.ShardCount())
	for i := range sinks {
		sinks[i] = reg.Sink(fmt.Sprintf("recv.shard%d", i))
	}
	var dec packet.Packet
	cache := make(map[netip.AddrPort]string, 8)
	cur := int32(-1) // the HandleChunk span the out callback runs under
	for i, d := range e.dgrams {
		from := e.froms[i]
		root := tr.begin(spDgram, -1)
		sp := tr.begin(spDecode, root)
		err := packet.DecodeInto(d, &dec)
		tr.end(sp)
		if err != nil {
			tr.end(root)
			continue
		}
		dgramsIn.Inc()
		for j := 0; j < len(dec.Chunks); {
			rt := tr.begin(spRoute, root)
			cid := dec.Chunks[j].C.ID
			k := j + 1
			for k < len(dec.Chunks) && dec.Chunks[k].C.ID == cid {
				k++
			}
			addr, ok := cache[from]
			if !ok {
				addr = netip.AddrPortFrom(from.Addr().Unmap(), from.Port()).String()
				cache[from] = addr
			}
			key := shard.Key{CID: cid, Addr: addr}
			sh := eng.Shard(key)
			sh.Lock()
			c, ok := sh.Get(key)
			if !ok {
				c, err = sh.Establish(key, func() (*rconn, error) {
					rc := &rconn{peer: net.UDPAddrFromAddrPort(netip.AddrPortFrom(from.Addr().Unmap(), from.Port()))}
					r, err := transport.NewReceiver(transport.ReceiverConfig{
						MTU: 1400, ReapAfter: 250, OnTPDU: noVerdict, Tel: sinks[eng.ShardIndex(key)],
					}, func(dg []byte) {
						a := tr.begin(spAck, cur)
						_, _ = e.ackSock.WriteToUDP(dg, rc.peer)
						rc.r.Recycle(dg)
						tr.end(a)
						acks++
					})
					rc.r = r
					return rc, err
				})
				if err != nil {
					sh.Unlock()
					tr.end(rt)
					j = k
					continue
				}
			}
			sh.Touch(key)
			for ; j < k; j++ {
				cur = tr.begin(spHandle, rt)
				_ = c.r.HandleChunk(&dec.Chunks[j])
				tr.end(cur)
				chunks++
			}
			if c.r.NeedsPoll() {
				sh.ArmPoll(key)
			}
			sh.Unlock()
			tr.end(rt)
		}
		tr.end(root)
	}
	return chunks, acks
}

// inject times the same stream through core.Server.InjectBatch, in
// bursts of replayBurst, on a server configured as the live rounds'.
func (e *replay) inject() (wall time.Duration, err error) {
	srv, err := core.Serve("127.0.0.1:0", core.Config{Telemetry: telemetry.New(0), OnTPDU: noVerdict})
	if err != nil {
		return 0, err
	}
	defer srv.Shutdown()
	wall, _ = timed(func() {
		for i := 0; i < len(e.dgrams); i += replayBurst {
			j := min(i+replayBurst, len(e.dgrams))
			srv.InjectBatch(e.dgrams[i:j], e.froms[i:j])
		}
	})
	return wall, nil
}

// sockets pushes the stream through a benchmark-owned socket pair:
// batch.Writer.Write in bursts of replayBurst, then batch.Reader.Read
// (core's read-loop settings) until the burst is drained.
func (e *replay) sockets(tr *tracer) (reads int64, err error) {
	rs, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return 0, err
	}
	defer rs.Close()
	_ = rs.SetReadBuffer(8 << 20)
	ws, err := net.DialUDP("udp", nil, rs.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return 0, err
	}
	defer ws.Close()
	_ = ws.SetWriteBuffer(4 << 20)
	w := batch.NewWriter(ws, replayBurst)
	r := batch.NewReader(rs, 32, 65536)
	for i := 0; i < len(e.dgrams); i += replayBurst {
		j := min(i+replayBurst, len(e.dgrams))
		sp := tr.begin(spWrite, -1)
		err := w.Write(e.dgrams[i:j])
		tr.end(sp)
		if err != nil {
			return reads, err
		}
		for got := 0; got < j-i; {
			_ = rs.SetReadDeadline(time.Now().Add(time.Second))
			sp := tr.begin(spRead, -1)
			n, err := r.Read()
			tr.end(sp)
			if err != nil {
				return reads, fmt.Errorf("socket replay lost datagrams: %w", err)
			}
			got += n
			reads++
		}
	}
	return reads, nil
}

// connKey names a connection in the replays that bypass core.
type connKey struct {
	cid uint32
	src int
}

// errdetReplay feeds every data and ED chunk to one
// errdet.Receiver.IngestPlaced per connection, its conflict view lent
// from the expected payload as the transport lends its placed stream.
func (e *replay) errdetReplay(tr *tracer) (chunks int64) {
	sink := telemetry.New(0).Sink("recv.replay")
	recvs := map[connKey]*errdet.Receiver{}
	for i := range e.pkts {
		for ci := range e.pkts[i].Chunks {
			c := &e.pkts[i].Chunks[ci]
			if c.Type != chunk.TypeData && c.Type != chunk.TypeED {
				continue
			}
			key := connKey{c.C.ID, e.src[i]}
			rx := recvs[key]
			if rx == nil {
				rx, _ = errdet.NewReceiver(errdet.DefaultLayout())
				rx.SetTelemetry(sink)
				data := e.payloads[c.C.ID]
				rx.SetOverlapPolicy(vr.FirstWins, func(iv vr.Interval) []byte {
					if iv.Hi*elemSize > uint64(len(data)) {
						return nil
					}
					return data[iv.Lo*elemSize : iv.Hi*elemSize]
				})
				recvs[key] = rx
			}
			sp := tr.begin(spErrdet, -1)
			_, _, _ = rx.IngestPlaced(c)
			tr.end(sp)
			chunks++
		}
	}
	return chunks
}

// vrStats is what the vr replay counted.
type vrStats struct {
	chunks, elems, fresh int64
	tpdus                int64
	peakFragments        int64 // summed over TPDUs: each TPDU's largest interval count
}

// vrReplay feeds every data chunk to one vr.Tracker.AddChecked per
// connection at T level.
func (e *replay) vrReplay(tr *tracer) vrStats {
	var st vrStats
	trackers := map[connKey]*vr.Tracker{}
	type tpduKey struct {
		conn connKey
		tid  uint32
	}
	peak := map[tpduKey]int{}
	var data []byte
	var delta uint64
	view := func(iv vr.Interval) []byte {
		lo, hi := (iv.Lo+delta)*elemSize, (iv.Hi+delta)*elemSize
		if hi > uint64(len(data)) {
			return nil
		}
		return data[lo:hi]
	}
	for i := range e.pkts {
		for ci := range e.pkts[i].Chunks {
			c := &e.pkts[i].Chunks[ci]
			if c.Type != chunk.TypeData {
				continue
			}
			key := connKey{c.C.ID, e.src[i]}
			t := trackers[key]
			if t == nil {
				t = new(vr.Tracker)
				trackers[key] = t
			}
			data, delta = e.payloads[c.C.ID], c.C.SN-c.T.SN
			k := vr.Key{Level: vr.LevelT, ID: c.T.ID}
			sp := tr.begin(spVR, -1)
			fresh, _, _ := t.AddChecked(k, c.T.SN, uint64(c.Len), c.T.ST, vr.FirstWins, c.Payload, int(c.Size), view)
			tr.end(sp)
			st.chunks++
			st.elems += int64(c.Len)
			for _, iv := range fresh {
				st.fresh += int64(iv.Len())
			}
			tk := tpduKey{key, c.T.ID}
			peak[tk] = max(peak[tk], t.Get(k).Fragments())
		}
	}
	for _, p := range peak {
		st.tpdus++
		st.peakFragments += int64(p)
	}
	return st
}

// senderReplay cuts every connection's payload into TPDUs through a
// transport.Sender with the workload's shape, writing writeBytes at a
// time, and recycles the emitted datagrams as core.Conn does after its
// flush. It returns the TPDUs cut.
func (e *replay) senderReplay(tr *tracer) (tpdus int64, err error) {
	sink := telemetry.New(0).Sink("conn.replay")
	var pending [][]byte
	for _, cid := range sortedCIDs(e.payloads) {
		data := e.payloads[cid]
		s := transport.NewSender(transport.SenderConfig{
			CID: cid, MTU: e.shape.mtu, ElemSize: elemSize, TPDUElems: e.shape.tpduElems, Tel: sink,
		}, func(d []byte) { pending = append(pending, d) })
		recycle := func() {
			for i, d := range pending {
				s.Recycle(d)
				pending[i] = nil
			}
			pending = pending[:0]
		}
		for off := 0; off < len(data); off += e.shape.writeBytes {
			sp := tr.begin(spSender, -1)
			err := s.Write(data[off:min(off+e.shape.writeBytes, len(data))])
			tr.end(sp)
			recycle()
			if err != nil {
				return tpdus, err
			}
		}
		sp := tr.begin(spSender, -1)
		err := s.Flush()
		tr.end(sp)
		recycle()
		if err != nil {
			return tpdus, err
		}
		tpdus += int64(s.TPDUsSent)
	}
	return tpdus, nil
}

func sortedCIDs(m map[uint32][]byte) []uint32 {
	out := make([]uint32, 0, len(m))
	for cid := range m {
		out = append(out, cid)
	}
	slices.Sort(out)
	return out
}

// runLedger replays the captured stream replayReps times and reduces
// each repetition to per-layer figures; it returns their medians and
// writes the last repetition's spans to spanPath.
func runLedger(name string, in *stream, payloads map[uint32][]byte, spanPath string) (map[string]float64, error) {
	e, err := newReplay(name, in, payloads)
	if err != nil {
		return nil, err
	}
	defer e.close()
	n := float64(len(e.dgrams))
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	floor, perChild := calibrate()
	var last *tracer
	for rep := 0; rep < replayReps; rep++ {
		// The first replay after a collection re-faults the pages the
		// previous repetition released; an untimed one absorbs that.
		timed(func() { e.pipeline(newTracer(false, 0)) })
		injectWall, err := e.inject()
		if err != nil {
			return nil, err
		}
		_, plainCPU := timed(func() { e.pipeline(newTracer(false, 0)) })
		tr := newTracer(true, len(e.dgrams)*10)
		var chunks, acks int64
		_, tracedCPU := timed(func() { chunks, acks = e.pipeline(tr) })
		var reads int64
		var sockErr error
		timed(func() { reads, sockErr = e.sockets(tr) })
		if sockErr != nil {
			return nil, sockErr
		}
		var edChunks, tpdus int64
		var vs vrStats
		var sendErr error
		timed(func() { edChunks = e.errdetReplay(tr) })
		timed(func() { vs = e.vrReplay(tr) })
		timed(func() { tpdus, sendErr = e.senderReplay(tr) })
		if sendErr != nil {
			return nil, sendErr
		}

		tot, cnt := tr.self(floor, perChild)
		ns := func(s int) float64 { return float64(tot[s].Nanoseconds()) }
		stages := ns(spDecode) + ns(spRoute) + ns(spHandle) + ns(spAck)
		inj := float64(injectWall.Nanoseconds())
		add("batch.read_ns_per_dgram", ns(spRead)/n)
		add("batch.dgrams_per_read", n/float64(max(reads, 1)))
		add("batch.write_ns_per_dgram", ns(spWrite)/n)
		add("packet.decode_ns_per_dgram", ns(spDecode)/n)
		add("shard.route_ns_per_chunk", ns(spRoute)/float64(max(chunks, 1)))
		add("transport.handle_self_ns_per_chunk", ns(spHandle)/float64(max(chunks, 1)))
		add("transport.ack_out_ns_per_ack", ns(spAck)/float64(max(cnt[spAck], 1)))
		add("transport.acks_per_dgram", float64(acks)/n)
		add("transport.sender_write_ns_per_tpdu", ns(spSender)/float64(max(tpdus, 1)))
		add("errdet.ingest_ns_per_chunk", ns(spErrdet)/float64(max(edChunks, 1)))
		add("vr.add_ns_per_chunk", ns(spVR)/float64(max(vs.chunks, 1)))
		add("vr.fragments_per_tpdu", float64(vs.peakFragments)/float64(max(vs.tpdus, 1)))
		add("vr.dup_elem_frac", 1-float64(vs.fresh)/float64(max(vs.elems, 1)))
		add("core.inject_ns_per_dgram", inj/n)
		add("ledger.decode_frac", ns(spDecode)/stages)
		add("ledger.route_frac", ns(spRoute)/stages)
		add("ledger.handle_frac", ns(spHandle)/stages)
		add("ledger.ack_out_frac", ns(spAck)/stages)
		add("ledger.residue_frac", (inj-stages)/inj)
		add("ledger.trace_overhead_frac", float64(tracedCPU)/float64(max(plainCPU, 1))-1)
		last = tr
	}
	out := map[string]float64{"ledger.replay_dgrams": n, "ledger.span_floor_ns": float64(floor.Nanoseconds())}
	for k, v := range per {
		out[k] = median(v)
	}
	if err := last.write(spanPath); err != nil {
		return nil, err
	}
	return out, nil
}
