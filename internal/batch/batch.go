// Package batch moves many UDP datagrams per syscall wakeup. The
// paper's argument is that per-unit bookkeeping — not data touching —
// is what caps protocol processing rates; on the receive path of this
// implementation the same holds for the kernel boundary: one
// recvfrom(2) per datagram costs a syscall, a poller arm and a
// scheduler round trip per ~1.4 KiB of payload. A Reader amortises
// that fixed cost over a whole burst (recvmmsg(2) on Linux, a
// deadline-bounded drain elsewhere), and a Writer does the same for
// transmission (sendmmsg(2), to one connected peer or to a destination
// per datagram); both expose the burst as indexed datagram views over
// preallocated buffers, so a steady receive loop performs zero
// allocations per wakeup.
package batch

import (
	"net"
	"net/netip"
	"time"
)

// drainDeadline bounds the portable Reader's follow-up reads: after
// one blocking receive it keeps reading until the queue is empty or
// this deadline lapses, whichever is first. Short enough to be
// latency-invisible, long enough to empty a socket buffer.
const drainDeadline = 200 * time.Microsecond

// A Reader receives UDP datagrams in batches. Each Read wakes up for
// at least one datagram and drains up to Slots of them; Datagram and
// Addr index the result. All buffers are preallocated: a steady Read
// loop allocates nothing, on either implementation path.
//
// The Reader owns the socket read deadline during Read (the portable
// drain rewrites it), so callers that want a bounded blocking wait
// must set their deadline before every Read call.
type Reader struct {
	conn  *net.UDPConn
	bufs  [][]byte
	lens  []int
	addrs []netip.AddrPort
	mm    *mmsgReader // nil → portable deadline-drain fallback
}

// NewReader returns a Reader with the given number of datagram slots,
// each mtu bytes. On supported platforms (Linux) batches are received
// with one recvmmsg call; elsewhere a blocking read plus a short
// non-blocking drain provides the same many-per-wakeup behaviour.
func NewReader(conn *net.UDPConn, slots, mtu int) *Reader {
	if slots < 1 {
		slots = 1
	}
	if mtu < 1 {
		mtu = 1500
	}
	r := &Reader{
		conn:  conn,
		bufs:  make([][]byte, slots),
		lens:  make([]int, slots),
		addrs: make([]netip.AddrPort, slots),
	}
	backing := make([]byte, slots*mtu)
	for i := range r.bufs {
		r.bufs[i] = backing[i*mtu : (i+1)*mtu]
	}
	r.mm = newMmsgReader(conn, r.bufs)
	return r
}

// Slots returns the batch capacity.
func (r *Reader) Slots() int { return len(r.bufs) }

// Batched reports whether the one-syscall-per-batch kernel path
// (recvmmsg) is active, as opposed to the portable drain.
func (r *Reader) Batched() bool { return r.mm != nil }

// Read blocks until at least one datagram arrives (respecting the
// socket read deadline), drains whatever else is already queued, and
// returns the number of datagrams received. Errors from the wait —
// deadline expiry, a closed socket — are returned as-is, so callers
// dispatch on net.Error.Timeout and net.ErrClosed exactly as with
// ReadFromUDP.
//
//lint:hot
func (r *Reader) Read() (int, error) {
	if r.mm != nil {
		return r.mm.read(r.lens, r.addrs)
	}
	n, addr, err := r.conn.ReadFromUDPAddrPort(r.bufs[0])
	if err != nil {
		return 0, err
	}
	r.lens[0], r.addrs[0] = n, addr
	cnt := 1
	if len(r.bufs) > 1 {
		_ = r.conn.SetReadDeadline(time.Now().Add(drainDeadline)) //lint:allow detrand socket deadline bounding the non-blocking drain, not protocol logic
		for cnt < len(r.bufs) {
			n, addr, err := r.conn.ReadFromUDPAddrPort(r.bufs[cnt])
			if err != nil {
				break // empty queue (deadline) or a real error the next Read reports
			}
			r.lens[cnt], r.addrs[cnt] = n, addr
			cnt++
		}
	}
	return cnt, nil
}

// Datagram returns the i-th received datagram of the last Read. The
// slice aliases the Reader's slot buffer: valid until the next Read.
//
//lint:hot
func (r *Reader) Datagram(i int) []byte { return r.bufs[i][:r.lens[i]] }

// Addr returns the source address of the i-th datagram of the last
// Read.
//
//lint:hot
func (r *Reader) Addr(i int) netip.AddrPort { return r.addrs[i] }

// A Writer transmits UDP datagrams in batches: Write over a CONNECTED
// socket (destinations come from the connection), WriteTo over an
// unconnected one (a destination per datagram). On supported platforms
// a batch goes down in one sendmmsg call; elsewhere it degrades to one
// write per datagram. A Writer is not safe for concurrent use.
type Writer struct {
	conn  *net.UDPConn
	mm    *mmsgWriter
	calls int64 // portable-path write calls
}

// NewWriter returns a Writer sending up to slots datagrams per
// syscall.
func NewWriter(conn *net.UDPConn, slots int) *Writer {
	if slots < 1 {
		slots = 1
	}
	return &Writer{conn: conn, mm: newMmsgWriter(conn, slots)}
}

// Batched reports whether the sendmmsg kernel path is active.
func (w *Writer) Batched() bool { return w.mm != nil }

// Syscalls returns how many send syscalls the Writer has issued: one
// per sendmmsg call on the kernel path (more than one per batch only
// when the socket buffer fills), one per datagram on the portable path.
func (w *Writer) Syscalls() int64 {
	if w.mm != nil {
		return w.mm.calls
	}
	return w.calls
}

// Write transmits every datagram in order, blocking (subject to the
// socket write deadline) until all are handed to the kernel.
//
//lint:hot
func (w *Writer) Write(dgrams [][]byte) error {
	if w.mm != nil {
		return w.mm.write(dgrams)
	}
	for _, d := range dgrams {
		w.calls++
		if _, err := w.conn.Write(d); err != nil {
			return err
		}
	}
	return nil
}

// WriteTo transmits dgrams[i] to to[i], in order, blocking (subject to
// the socket write deadline) until all are handed to the kernel. IPv4
// destinations work on a dual-stack socket too (they go out as
// v4-mapped IPv6). A datagram the kernel refuses, or whose destination
// the socket's address family cannot carry, is skipped: the others
// still go out, and the first such error is returned.
//
//lint:hot
func (w *Writer) WriteTo(dgrams [][]byte, to []netip.AddrPort) error {
	if w.mm != nil {
		return w.mm.writeTo(dgrams, to)
	}
	var first error
	for i, d := range dgrams {
		w.calls++
		if _, err := w.conn.WriteToUDPAddrPort(d, to[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}
