package experiments

import (
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"time"

	"chunks/internal/core"
	"chunks/internal/telemetry"
	"chunks/internal/transport"
)

// C1 — the concurrent-connection scale sweep over the sharded engine
// (internal/shard). Per-chunk self-description means the receive side
// keeps no shared reassembly state across connections, so shards are
// share-nothing: the sweep measures what that buys (and what Shards=1
// costs) as live connections grow from 1k to 100k.
//
// Two ingestion paths are driven:
//
//   - pipe: datagrams are injected in-process (Server.InjectBatch +
//     Config.ControlOut), so the numbers isolate the engine — demux
//     hash, shard lock, receiver, timer wheel — from socket I/O.
//     ACK latency here is the synchronous span from datagram ingestion
//     to ACK emission.
//   - udp: real loopback sockets, establishment + steady-state rates
//     measured at the server, ACK latency as request→ACK round trips
//     on a probe connection.
//
// Every workload byte is seeded; the timing columns are the sanctioned
// wall-clock measurement of the experiment tables.

// A ScaleRow is one measured cell of the C1 sweep.
type ScaleRow struct {
	Transport    string  `json:"transport"` // "pipe" | "udp"
	Mode         string  `json:"mode"`      // "sharded" | "shards=1" | "shards=1+perconn-tel"
	Shards       int     `json:"shards"`
	Conns        int     `json:"conns"`
	EstabPerSec  float64 `json:"estab_per_sec"`
	DgramsPerSec float64 `json:"dgrams_per_sec"`
	AckP50Micros float64 `json:"ack_p50_us"`
	AckP99Micros float64 `json:"ack_p99_us"`
	BytesPerConn float64 `json:"bytes_per_idle_conn,omitempty"` // 0 = not measured on this row
}

// ScaleResult is the BENCH_scale.json trajectory: the full C1 sweep
// plus the run's shape.
type ScaleResult struct {
	Seed       int64      `json:"seed"`
	Quick      bool       `json:"quick"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Rows       []ScaleRow `json:"rows"`
}

type scaleMode struct {
	name    string
	shards  int
	perConn bool
}

// scaleWorkload is the pre-built seeded traffic for one connection
// count: per-connection establishment datagrams and a flat steady-state
// injection schedule over a hot subset.
type scaleWorkload struct {
	conns  int
	estab  []scaleInjection // one or two datagrams per connection
	steady []scaleInjection // round-robin over the hot subset
}

type scaleInjection struct {
	d    []byte
	peer netip.AddrPort
}

const (
	scaleInjectors  = 8   // concurrent injector goroutines
	scaleHotConns   = 512 // steady-state subset
	scaleTPDUBytes  = 64  // one TPDU per write: TPDUElems=16 × ElemSize=4
	scaleProbeRTTs  = 128 // udp ACK round trips
	scaleUDPSockets = 32
)

func scalePeer(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(30000+i%20000))
}

// buildScaleWorkload generates the seeded datagrams for one count:
// every connection gets a complete one-TPDU transfer (it verifies,
// ACKs, then goes quiescent — an idle connection holds no pending
// timer work), and the first scaleHotConns connections get steadyPer
// further TPDUs for the steady-state phase.
func buildScaleWorkload(seed int64, conns, steadyTotal int) (*scaleWorkload, error) {
	w := &scaleWorkload{conns: conns}
	hot := conns
	if hot > scaleHotConns {
		hot = scaleHotConns
	}
	steadyPer := (steadyTotal + hot - 1) / hot
	perConn := make([][][]byte, hot)
	for i := 0; i < conns; i++ {
		var out [][]byte
		s := transport.NewSender(transport.SenderConfig{
			CID: uint32(i + 1), TPDUElems: 16,
		}, func(d []byte) { out = append(out, append([]byte(nil), d...)) })
		if err := s.Write(seededBytes(seed+int64(i), scaleTPDUBytes)); err != nil {
			return nil, err
		}
		if err := s.Flush(); err != nil {
			return nil, err
		}
		peer := scalePeer(i)
		for _, d := range out {
			w.estab = append(w.estab, scaleInjection{d, peer})
		}
		if i < hot {
			mark := len(out)
			for k := 0; k < steadyPer; k++ {
				if err := s.Write(seededBytes(seed+int64(i)+int64(k)*7919, scaleTPDUBytes)); err != nil {
					return nil, err
				}
			}
			if err := s.Flush(); err != nil {
				return nil, err
			}
			perConn[i] = out[mark:]
		}
	}
	// Interleave the hot connections round-robin so concurrent
	// injectors spread over shards the way independent peers would.
	for k := 0; ; k++ {
		progressed := false
		for i := 0; i < hot; i++ {
			if k < len(perConn[i]) {
				w.steady = append(w.steady, scaleInjection{perConn[i][k], scalePeer(i)})
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return w, nil
}

func seededBytes(seed int64, n int) []byte {
	// Cheap seeded filler (xorshift) — the payload content is
	// irrelevant to the measurement but must be deterministic.
	b := make([]byte, n)
	x := uint64(seed)*2654435761 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}

// injectAll drives the schedule through srv.InjectBatch, one datagram
// per call, from scaleInjectors goroutines (stride partition) and
// returns the wall-clock span and, optionally, every per-injection latency.
func injectAll(srv *core.Server, sched []scaleInjection, sample bool) (time.Duration, []time.Duration) {
	lat := make([][]time.Duration, scaleInjectors)
	var wg sync.WaitGroup
	start := time.Now() //lint:allow detrand measured timing column of the experiment table
	for g := 0; g < scaleInjectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(sched); i += scaleInjectors {
				if sample {
					t0 := time.Now() //lint:allow detrand measured timing column of the experiment table
					srv.InjectBatch([][]byte{sched[i].d}, []netip.AddrPort{sched[i].peer})
					lat[g] = append(lat[g], time.Since(t0)) //lint:allow detrand measured timing column of the experiment table
				} else {
					srv.InjectBatch([][]byte{sched[i].d}, []netip.AddrPort{sched[i].peer})
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start) //lint:allow detrand measured timing column of the experiment table
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	return elapsed, all
}

func durPercentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	idx := int(p * float64(len(ds)-1))
	return float64(ds[idx]) / float64(time.Microsecond)
}

func heapInUse() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runScalePipe measures one (mode × count) cell on the in-process
// ingestion path.
func runScalePipe(w *scaleWorkload, m scaleMode) (ScaleRow, error) {
	row := ScaleRow{Transport: "pipe", Mode: m.name, Shards: m.shards, Conns: w.conns}
	baseline := heapInUse()
	srv, err := core.Serve("127.0.0.1:0", core.Config{
		Shards:           m.shards,
		PerConnTelemetry: m.perConn,
		Telemetry:        telemetry.New(0),
		IdleTimeout:      10 * time.Minute, // idle timers armed, never due in-run
		ControlOut:       func([]byte, *net.UDPAddr) {},
	})
	if err != nil {
		return row, err
	}
	defer srv.Shutdown()

	elapsed, _ := injectAll(srv, w.estab, false)
	if got := srv.ConnCount(); got != w.conns {
		return row, fmt.Errorf("C1 pipe: established %d conns, want %d", got, w.conns)
	}
	row.EstabPerSec = float64(w.conns) / elapsed.Seconds()
	row.BytesPerConn = (heapInUse() - baseline) / float64(w.conns)

	elapsed, lat := injectAll(srv, w.steady, true)
	row.DgramsPerSec = float64(len(w.steady)) / elapsed.Seconds()
	row.AckP50Micros = durPercentile(lat, 0.50)
	row.AckP99Micros = durPercentile(lat, 0.99)
	return row, nil
}

// runScaleUDP measures one (mode × count) cell over loopback UDP.
func runScaleUDP(w *scaleWorkload, m scaleMode) (ScaleRow, error) {
	row := ScaleRow{Transport: "udp", Mode: m.name, Shards: m.shards, Conns: w.conns}
	reg := telemetry.New(0)
	srv, err := core.Serve("127.0.0.1:0", core.Config{
		Shards:      m.shards,
		Telemetry:   reg,
		Readers:     4,
		IdleTimeout: 10 * time.Minute,
	})
	if err != nil {
		return row, err
	}
	defer srv.Shutdown()

	socks := make([]*net.UDPConn, scaleUDPSockets)
	raddr, err := net.ResolveUDPAddr("udp", srv.Addr().String())
	if err != nil {
		return row, err
	}
	for i := range socks {
		s, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return row, err
		}
		_ = s.SetWriteBuffer(4 << 20)
		defer s.Close()
		socks[i] = s
	}
	send := func(sched []scaleInjection) time.Duration {
		var wg sync.WaitGroup
		start := time.Now() //lint:allow detrand measured timing column of the experiment table
		for g := 0; g < scaleInjectors; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(sched); i += scaleInjectors {
					// A connection's datagrams always leave the same
					// socket: (C.ID, source) must stay stable.
					_, _ = socks[int(sched[i].peer.Port())%scaleUDPSockets].Write(sched[i].d)
				}
			}(g)
		}
		wg.Wait()
		return time.Since(start) //lint:allow detrand measured timing column of the experiment table
	}

	// Establishment: blast, then resend until every connection exists
	// (loopback can still drop under burst; establishment datagrams are
	// idempotent re-injections for live connections).
	start := time.Now() //lint:allow detrand measured timing column of the experiment table
	deadline := start.Add(30 * time.Second)
	send(w.estab)
	for srv.ConnCount() < w.conns {
		if time.Now().After(deadline) { //lint:allow detrand measured timing column of the experiment table
			return row, fmt.Errorf("C1 udp: only %d/%d conns established", srv.ConnCount(), w.conns)
		}
		time.Sleep(20 * time.Millisecond)
		if srv.ConnCount() < w.conns {
			send(w.estab)
		}
	}
	row.EstabPerSec = float64(w.conns) / time.Since(start).Seconds() //lint:allow detrand measured timing column of the experiment table

	// Steady state: rate at which the server ingests datagrams, counted
	// at the server (losses on the blast path don't inflate the rate).
	before := reg.Snapshot().Scopes["server"].Counters["datagrams_in"]
	elapsed := send(w.steady)
	for settle := 0; settle < 50; settle++ {
		a := reg.Snapshot().Scopes["server"].Counters["datagrams_in"]
		time.Sleep(10 * time.Millisecond)
		if reg.Snapshot().Scopes["server"].Counters["datagrams_in"] == a {
			break
		}
		elapsed += 10 * time.Millisecond
	}
	row.DgramsPerSec = float64(reg.Snapshot().Scopes["server"].Counters["datagrams_in"]-before) / elapsed.Seconds()

	// ACK latency: sequential request→ACK round trips on a fresh probe
	// connection.
	probe, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return row, err
	}
	defer probe.Close()
	var pd [][]byte
	ps := transport.NewSender(transport.SenderConfig{CID: uint32(w.conns + 7), TPDUElems: 16},
		func(d []byte) { pd = append(pd, append([]byte(nil), d...)) })
	var rtts []time.Duration
	buf := make([]byte, 2048)
	for i := 0; i < scaleProbeRTTs; i++ {
		pd = pd[:0]
		if err := ps.Write(seededBytes(int64(i), scaleTPDUBytes)); err != nil {
			return row, err
		}
		if err := ps.Flush(); err != nil {
			return row, err
		}
		t0 := time.Now() //lint:allow detrand measured timing column of the experiment table
		for _, d := range pd {
			if _, err := probe.Write(d); err != nil {
				return row, err
			}
		}
		_ = probe.SetReadDeadline(time.Now().Add(time.Second)) //lint:allow detrand measured timing column of the experiment table
		if _, err := probe.Read(buf); err != nil {
			continue // lost probe: skip the sample
		}
		rtts = append(rtts, time.Since(t0)) //lint:allow detrand measured timing column of the experiment table
	}
	row.AckP50Micros = durPercentile(rtts, 0.50)
	row.AckP99Micros = durPercentile(rtts, 0.99)
	return row, nil
}

// C1Run executes the sweep and returns both the table and the raw
// trajectory (cmd/chunkbench writes the latter to BENCH_scale.json).
func C1Run(seed int64, quick bool) (*Table, *ScaleResult, error) {
	t := &Table{
		ID:    "C1",
		Title: "concurrent-connection scale: sharded engine vs Shards=1 (conns/sec, steady dgrams/sec, ACK latency, idle memory)",
		Header: []string{"transport", "mode", "conns", "estab/s", "steady dgram/s",
			"ack p50 (µs)", "ack p99 (µs)", "B/idle conn"},
	}
	res := &ScaleResult{Seed: seed, Quick: quick, GOMAXPROCS: runtime.GOMAXPROCS(0)}

	counts := []int{1000, 10000, 50000, 100000}
	steadyTotal := 50000
	udpCounts := []int{1000, 10000}
	if quick {
		counts = []int{200, 1000}
		steadyTotal = 5000
		udpCounts = nil
	}
	modes := []scaleMode{
		{"sharded", 8, false},
		{"shards=1", 1, false},
	}

	memCmpCount := counts[len(counts)/2] // mid-sweep count for the telemetry-mode memory row
	for _, n := range counts {
		w, err := buildScaleWorkload(seed, n, steadyTotal)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range modes {
			row, err := runScalePipe(w, m)
			if err != nil {
				return nil, nil, err
			}
			res.Rows = append(res.Rows, row)
		}
		if n == memCmpCount {
			// The pre-PR configuration: one telemetry scope per
			// connection. Only the idle-memory column is of interest.
			row, err := runScalePipe(w, scaleMode{"shards=1+perconn-tel", 1, true})
			if err != nil {
				return nil, nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	for _, n := range udpCounts {
		w, err := buildScaleWorkload(seed, n, steadyTotal)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range modes {
			row, err := runScaleUDP(w, m)
			if err != nil {
				return nil, nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}

	for _, r := range res.Rows {
		mem := "-"
		if r.BytesPerConn > 0 {
			mem = fmt.Sprintf("%.0f", r.BytesPerConn)
		}
		t.row(r.Transport, r.Mode, fmt.Sprintf("%d", r.Conns),
			fmt.Sprintf("%.0f", r.EstabPerSec), fmt.Sprintf("%.0f", r.DgramsPerSec),
			fmt.Sprintf("%.1f", r.AckP50Micros), fmt.Sprintf("%.1f", r.AckP99Micros), mem)
	}
	t.note("share-nothing shards: chunk labels carry connection identity, so a datagram is processed to completion under one shard lock — no cross-connection state exists to share (GOMAXPROCS=%d here; shard wins grow with cores)", runtime.GOMAXPROCS(0))
	t.note("pipe = in-process ingestion (Server.InjectBatch), isolating demux+shard+receiver+wheel from socket I/O; ACK latency there is the synchronous ingestion→ACK span")
	t.note("B/idle conn = heap delta per established-then-quiescent connection; shards=1+perconn-tel is the pre-PR default (one telemetry scope per connection)")
	if quick {
		t.note("quick mode: reduced counts, pipe path only — run `chunkbench -exp C1` for the full 1k→100k sweep and BENCH_scale.json")
	}
	return t, res, nil
}

// C1 is the table-only wrapper used by All/ByID.
func C1(seed int64, quick bool) (*Table, error) {
	t, _, err := C1Run(seed, quick)
	return t, err
}
