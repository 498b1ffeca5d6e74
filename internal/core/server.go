package core

import (
	"errors"
	"fmt"
	"log"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"chunks/internal/batch"
	"chunks/internal/errdet"
	"chunks/internal/packet"
	"chunks/internal/shard"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// serverConn is the receive state of one peer connection.
type serverConn struct {
	r    *transport.Receiver
	peer *net.UDPAddr   // control destination, bound at establishment
	to   netip.AddrPort // peer, as the outbox keys envelopes
	cid  uint32
	// ob is the outbox the receiver's control goes to: set under the
	// shard lock before every HandleChunk and Poll, so it is always
	// the calling ingestion context's.
	ob *outbox
}

// A Server is the receiving end of chunk connections over UDP. It
// serves multiple peers concurrently, keyed by connection ID × source
// address: each connection places data immediately into its own stream
// buffer, verifies each TPDU end-to-end, ACKs/NACKs back to the
// address the connection was established from, and delivers frames
// through the Config callbacks.
//
// Connections are demultiplexed over Config.Shards independent shards
// (internal/shard), each with its own table, lock and timer wheel —
// per-chunk self-description means no reassembly state is shared
// across connections, so steady-state datagram handling touches
// exactly one shard lock. Timer-driven work (receiver poll rounds,
// idle expiry) runs off the shards' hierarchical timer wheels in O(1)
// per tick instead of a per-tick scan of the whole connection table.
//
// The single-connection accessors (Stream, VerifiedCount, Closed,
// Findings, WaitClosed) operate on the primary connection: the
// earliest-established one still alive. Multi-peer callers use
// StreamOf and ConnCount.
type Server struct {
	cfg      Config
	sock     *net.UDPConn
	eng      *shard.Engine[*serverConn]
	done     chan struct{}
	shutOnce sync.Once
	wg       sync.WaitGroup

	idleTicks uint64
	expired   atomic.Int64 // connections reaped by idle expiry
	rejected  atomic.Int64 // connections torn down by vr.RejectConnection

	shardSinks []telemetry.Sink // per-shard aggregate receiver sinks

	tickOb *outbox    // the tick loop's outbox (Poll's NACKs)
	ingest *sync.Pool // *ingress for InjectBatch

	telEstablished *telemetry.Counter
	telExpired     *telemetry.Counter
	telDatagrams   *telemetry.Counter
	telUndecodable *telemetry.Counter
	telRejected    *telemetry.Counter
	telRefused     *telemetry.Counter
	telSetupErr    *telemetry.Counter
	telSockErr     *telemetry.Counter
	telLive        *telemetry.Gauge
	telRing        *telemetry.Ring
}

// Serve starts a receiver on the given UDP address ("host:0" picks a
// free port).
func Serve(addr string, cfg Config) (*Server, error) {
	cfg.fill()
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	_ = sock.SetReadBuffer(8 << 20)
	_ = sock.SetWriteBuffer(4 << 20)
	sink := cfg.Telemetry.Sink("server")
	srv := &Server{
		cfg:  cfg,
		sock: sock,
		done: make(chan struct{}),

		telEstablished: sink.Counter("conns_established"),
		telExpired:     sink.Counter("conns_expired"),
		telDatagrams:   sink.Counter("datagrams_in"),
		telUndecodable: sink.Counter("datagrams_undecodable"),
		telRejected:    sink.Counter("conns_rejected"),
		telRefused:     sink.Counter("conns_refused"),
		telSetupErr:    sink.Counter("conn_setup_errors"),
		telSockErr:     sink.Counter("recv_sock_err"),
		telLive:        sink.Gauge("conns_live"),
		telRing:        sink.Ring,
	}
	eg := &egress{
		sock: sock, mtu: cfg.MTU, controlOut: cfg.ControlOut,
		envelopes: sink.Counter("ctrl_envelopes_out"),
		chunks:    sink.Counter("ctrl_chunks_out"),
		syscalls:  sink.Counter("egress_syscalls"),
		early:     sink.Counter("egress_early_flush"),
	}
	srv.tickOb = newOutbox(eg)
	srv.ingest = &sync.Pool{New: func() any { return newIngress(eg) }}
	if cfg.IdleTimeout > 0 {
		// Idle expiry in whole ticks, rounded up: the effective lease
		// stays within one PollEvery of the configured timeout, exactly
		// the granularity the old per-tick wall-clock scan had.
		srv.idleTicks = uint64((cfg.IdleTimeout + cfg.PollEvery - 1) / cfg.PollEvery)
	}
	srv.eng = shard.New(shard.Config[*serverConn]{
		Shards:    cfg.Shards,
		MaxConns:  cfg.MaxConns,
		IdleTicks: srv.idleTicks,
		Poll: func(_ shard.Key, c *serverConn) bool {
			c.ob = srv.tickOb
			c.r.Poll()
			return c.r.NeedsPoll()
		},
	})
	// One aggregate receiver sink per shard: connection count no longer
	// drives scope count (PerConnTelemetry opts back into per-conn
	// scopes, at one scope per connection).
	srv.shardSinks = make([]telemetry.Sink, srv.eng.ShardCount())
	if !cfg.PerConnTelemetry {
		for i := range srv.shardSinks {
			srv.shardSinks[i] = cfg.Telemetry.Sink(fmt.Sprintf("recv.shard%d", i))
		}
	}
	// Validate the receiver configuration once, up front, so Serve
	// fails fast the way it used to instead of on the first datagram.
	if _, err := transport.NewReceiver(srv.receiverConfig(), func([]byte) {}); err != nil {
		_ = sock.Close()
		return nil, err
	}

	readers := cfg.Readers
	if readers <= 0 {
		readers = 1
	}
	srv.wg.Add(readers + 1)
	for i := 0; i < readers; i++ {
		go srv.readLoop(newIngress(eg))
	}
	go srv.tickLoop()
	return srv, nil
}

func (s *Server) receiverConfig() transport.ReceiverConfig {
	return transport.ReceiverConfig{
		MTU:           s.cfg.MTU,
		OnFrame:       s.cfg.OnFrame,
		OnTPDU:        s.cfg.OnTPDU,
		Repair:        s.cfg.Repair,
		ReapAfter:     s.cfg.ReapAfter,
		OverlapPolicy: s.cfg.OverlapPolicy,
	}
}

// establish builds and admits the connection for key. Called with
// key's shard locked. On admission refusal or setup failure it
// returns nil and the reason; the caller drops the chunks and fires
// any callback outside the lock.
func (s *Server) establish(sh *shard.Shard[*serverConn], key shard.Key, from netip.AddrPort) (*serverConn, error) {
	to := netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
	peer := net.UDPAddrFromAddrPort(to)
	c, err := sh.Establish(key, func() (*serverConn, error) {
		cfg := s.receiverConfig()
		if s.cfg.PerConnTelemetry {
			cfg.Tel = s.cfg.Telemetry.Sink(fmt.Sprintf("recv.%d@%s", key.CID, key.Addr))
		} else {
			cfg.Tel = s.shardSinks[s.eng.ShardIndex(key)]
		}
		// The out callback captures the ESTABLISHMENT address: control
		// always goes there, no matter who sent the datagram that
		// triggered it. It only copies the control chunks into the
		// calling context's outbox — no syscall under the shard lock —
		// and recycles the datagram into the receiver's packer pool.
		sc := &serverConn{peer: peer, to: to, cid: key.CID}
		out := func(d []byte) {
			sc.ob.add(d[packet.HeaderSize:], sc.to, sc.peer)
			sc.r.Recycle(d)
		}
		r, err := transport.NewReceiver(cfg, out)
		if err != nil {
			return nil, err
		}
		sc.r = r
		return sc, nil
	})
	if err != nil {
		if errors.Is(err, shard.ErrMaxConns) {
			s.telRefused.Inc()
		} else {
			// The config was validated in Serve; a failure here is an
			// invariant violation, not a droppable datagram: make it
			// loud instead of silently eating the peer's chunks.
			s.telSetupErr.Inc()
			log.Printf("core: invariant violation: receiver setup failed for conn %d@%s: %v", key.CID, key.Addr, err)
		}
		return nil, err
	}
	s.telEstablished.Inc()
	s.telLive.Set(int64(s.eng.Live()))
	return c, nil
}

// addrCacheMax bounds each ingress's source-address string cache;
// past it the cache resets rather than growing with spoofed sources.
const addrCacheMax = 4096

// addrKey formats a datagram source as the connection-table key —
// identical to what (*net.UDPAddr).String() reports for the same peer,
// so every ingestion path keys connections alike.
func addrKey(ap netip.AddrPort) string {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port()).String()
}

// An ingress is one ingestion context: the decode scratch, the
// bounded source-key cache and the outbox its datagrams' control goes
// to. Each read loop owns one; InjectBatch borrows one from the
// server's pool.
type ingress struct {
	dec   packet.Packet
	cache map[netip.AddrPort]string
	ob    *outbox
}

func newIngress(eg *egress) *ingress {
	return &ingress{cache: make(map[netip.AddrPort]string, 64), ob: newOutbox(eg)}
}

// readLoop receives bursts of up to RecvBatch datagrams and flushes
// their control once per burst, after every shard lock is released.
// RecvBatch=1 is a 1-slot burst: one receive and one control send per
// datagram, the P10 baseline.
func (s *Server) readLoop(in *ingress) {
	defer s.wg.Done()
	br := batch.NewReader(s.sock, s.cfg.RecvBatch, 65536)
	var backoff time.Duration
	for {
		if !br.Batched() {
			// The portable drain rewrites the deadline during Read;
			// restore the shutdown-poll cadence before each wait.
			_ = s.sock.SetReadDeadline(time.Now().Add(50 * time.Millisecond)) //lint:allow detrand socket read deadline: I/O pacing, not protocol state
		}
		// On the kernel path no deadline is armed at all: Shutdown
		// closes the socket, which wakes the blocked read with
		// net.ErrClosed. That keeps the steady wakeup free of a
		// per-wakeup timer reset.
		n, err := br.Read()
		if err != nil {
			if !s.recvErr(err, &backoff) {
				return
			}
			continue
		}
		backoff = 0
		for i := 0; i < n; i++ {
			s.ingestOne(br.Datagram(i), br.Addr(i), in)
		}
		in.ob.flush()
	}
}

// recvErr classifies a read-loop socket error. Deadline expiry is the
// done-channel poll cadence; a closed socket ends the loop; anything
// else is counted as recv_sock_err and backed off exponentially
// (capped, interruptible by shutdown) so a persistently failing socket
// cannot spin a reader at full speed. Returns false when the loop
// should exit.
func (s *Server) recvErr(err error, backoff *time.Duration) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		select {
		case <-s.done:
			return false
		default:
			return true
		}
	}
	if errors.Is(err, net.ErrClosed) {
		select {
		case <-s.done:
			// Shutdown closed the socket to wake this reader: a clean
			// exit, not a socket failure.
		default:
			s.telSockErr.Inc()
		}
		return false
	}
	s.telSockErr.Inc()
	if *backoff == 0 {
		*backoff = time.Millisecond
	} else if *backoff < 100*time.Millisecond {
		*backoff *= 2
	}
	t := time.NewTimer(*backoff)
	select {
	case <-s.done:
		t.Stop()
		return false
	case <-t.C:
		return true
	}
}

// InjectBatch ingests a burst of datagrams as if they had arrived on
// the UDP socket — the in-process twin of the read loop, for tests and
// experiments that drive the engine without socket I/O. froms[i] is
// the source of dgrams[i]. Safe for concurrent callers: each chunk is
// routed to its (C.ID, source) connection's shard, and only that
// shard's lock is taken. The burst's control is sent once, before
// InjectBatch returns; Config.ControlOut captures it.
func (s *Server) InjectBatch(dgrams [][]byte, froms []netip.AddrPort) {
	in := s.ingest.Get().(*ingress)
	for i := range dgrams {
		s.ingestOne(dgrams[i], froms[i], in)
	}
	in.ob.flush()
	s.ingest.Put(in)
}

// ingestOne decodes one datagram into in's scratch and routes its
// chunks, their control going to in's outbox: the steady receive path
// re-uses the scratch and the cache across every datagram of every
// burst, so ingestion of a known peer's datagram allocates nothing
// before the shard lock.
func (s *Server) ingestOne(datagram []byte, from netip.AddrPort, in *ingress) {
	if packet.DecodeInto(datagram, &in.dec) != nil {
		s.telUndecodable.Inc()
		return
	}
	s.telDatagrams.Inc()
	addr, ok := in.cache[from]
	if !ok {
		addr = addrKey(from)
		if len(in.cache) >= addrCacheMax {
			clear(in.cache)
		}
		in.cache[from] = addr
	}
	s.route(&in.dec, addr, from, in.ob)
}

// connEvent defers a connection-lifecycle callback until the shard
// locks are released.
type connEvent struct {
	cid  uint32
	peer net.Addr
	fire func(cid uint32, peer net.Addr)
}

// route walks one decoded packet's chunks into their (C.ID, source)
// connections. addr is the precomputed connection-table key for from;
// the connections' control goes to ob.
func (s *Server) route(p *packet.Packet, addr string, from netip.AddrPort, ob *outbox) {
	var events []connEvent

	// Route each chunk to the (C.ID, source) connection. Packets are
	// usually single-connection, so handle runs of equal C.ID under
	// one shard lock acquisition.
	var droppedCID uint32
	dropped := false
	for i := 0; i < len(p.Chunks); {
		cid := p.Chunks[i].C.ID
		j := i + 1
		for j < len(p.Chunks) && p.Chunks[j].C.ID == cid {
			j++
		}
		if dropped && cid == droppedCID {
			i = j
			continue // connection torn down earlier in this packet
		}
		key := shard.Key{CID: cid, Addr: addr}
		sh := s.eng.Shard(key)
		sh.Lock()
		c, ok := sh.Get(key)
		if !ok {
			var err error
			if c, err = s.establish(sh, key, from); err != nil {
				sh.Unlock()
				if errors.Is(err, shard.ErrMaxConns) && s.cfg.OnConnRefused != nil {
					events = append(events, connEvent{cid: cid, peer: net.UDPAddrFromAddrPort(from), fire: s.cfg.OnConnRefused})
				}
				i = j
				continue
			}
		}
		sh.Touch(key)
		c.ob = ob
		for ; i < j; i++ {
			if err := c.r.HandleChunk(&p.Chunks[i]); errors.Is(err, transport.ErrConnectionRejected) {
				// The vr.RejectConnection overlap policy tripped: tear
				// the connection down and drop the rest of the packet
				// for it. A later packet re-establishes fresh state.
				sh.Remove(key)
				s.rejected.Add(1)
				s.telRejected.Inc()
				s.telLive.Set(int64(s.eng.Live()))
				if s.cfg.OnConnRejected != nil {
					events = append(events, connEvent{cid: cid, peer: c.peer, fire: s.cfg.OnConnRejected})
				}
				droppedCID, dropped = cid, true
				i = j
				break
			}
		}
		if (!dropped || cid != droppedCID) && c.r.NeedsPoll() {
			sh.ArmPoll(key)
		}
		sh.Unlock()
	}
	for _, ev := range events {
		ev.fire(ev.cid, ev.peer)
	}
}

// tickLoop advances the shard engine once per PollEvery: each tick
// serves only the due timers (receiver polls, idle leases) from the
// shards' wheels, then fires expiry callbacks outside the locks.
func (s *Server) tickLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.PollEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-tick.C:
			expired := s.eng.Tick()
			s.tickOb.flush()
			if len(expired) == 0 {
				continue
			}
			for _, e := range expired {
				s.expired.Add(1)
				s.telExpired.Inc()
				s.telRing.Record(telemetry.EvExpired, e.Val.cid, 0, 0, 0)
			}
			s.telLive.Set(int64(s.eng.Live()))
			if s.cfg.OnConnExpired != nil {
				for _, e := range expired {
					s.cfg.OnConnExpired(e.Val.cid, e.Val.peer)
				}
			}
		}
	}
}

// Addr returns the bound UDP address.
func (s *Server) Addr() net.Addr { return s.sock.LocalAddr() }

// ConnCount returns the number of live connections.
func (s *Server) ConnCount() int { return s.eng.Live() }

// Expired returns how many connections idle expiry has reaped.
func (s *Server) Expired() int { return int(s.expired.Load()) }

// RejectedConns returns how many connections the vr.RejectConnection
// overlap policy has torn down.
func (s *Server) RejectedConns() int { return int(s.rejected.Load()) }

// RefusedConns returns how many connection establishments admission
// control (Config.MaxConns) refused.
func (s *Server) RefusedConns() int { return s.eng.Refused() }

// Stream returns a copy of the application bytes placed so far on the
// primary connection.
func (s *Server) Stream() []byte {
	var out []byte
	s.eng.WithPrimary(func(c *serverConn) {
		out = append([]byte(nil), c.r.Stream()...)
	})
	return out
}

// StreamOf returns a copy of the stream of the connection established
// by cid from addr (the exact source "ip:port"), or nil.
func (s *Server) StreamOf(cid uint32, addr string) []byte {
	key := shard.Key{CID: cid, Addr: addr}
	sh := s.eng.Shard(key)
	sh.Lock()
	defer sh.Unlock()
	if c, ok := sh.Get(key); ok {
		return append([]byte(nil), c.r.Stream()...)
	}
	return nil
}

// VerifiedCount returns how many TPDUs verified OK on the primary
// connection.
func (s *Server) VerifiedCount() int {
	n := 0
	s.eng.WithPrimary(func(c *serverConn) { n = c.r.VerifiedCount() })
	return n
}

// Closed reports whether the close signal has arrived on the primary
// connection.
func (s *Server) Closed() bool {
	closed := false
	s.eng.WithPrimary(func(c *serverConn) { closed = c.r.Closed() })
	return closed
}

// Findings returns the error detection findings so far on the primary
// connection.
func (s *Server) Findings() []errdet.Finding {
	var out []errdet.Finding
	s.eng.WithPrimary(func(c *serverConn) { out = c.r.Findings() })
	return out
}

// Reaped returns how many stale incomplete TPDUs were dropped across
// all connections.
func (s *Server) Reaped() int {
	n := 0
	s.eng.Range(func(_ shard.Key, c *serverConn) { n += c.r.Reaped() })
	return n
}

// WaitClosed blocks until the close signal arrives and the primary
// stream has n bytes, or the timeout elapses.
func (s *Server) WaitClosed(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout) //lint:allow detrand test/CLI convenience wait; bounds wall time, not protocol behavior
	for time.Now().Before(deadline) {   //lint:allow detrand test/CLI convenience wait; bounds wall time, not protocol behavior
		ok := false
		s.eng.WithPrimary(func(c *serverConn) {
			ok = c.r.Closed() && len(c.r.Stream()) >= n
		})
		if ok {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%w: stream %d of %d bytes", ErrTimeout, len(s.Stream()), n)
}

// Shutdown stops the server. It is idempotent and safe to call
// concurrently. The socket is closed before the goroutine join: a
// batched reader blocks with no deadline armed, and the close is what
// wakes it.
func (s *Server) Shutdown() {
	s.shutOnce.Do(func() { close(s.done) })
	_ = s.sock.Close()
	s.wg.Wait()
}
