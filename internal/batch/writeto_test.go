package batch

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"
)

// listen opens an unconnected UDP socket on addr, skipping the test
// when the host lacks that address family.
func listen(t *testing.T, addr string) *net.UDPConn {
	t.Helper()
	c, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(netip.MustParseAddrPort(addr)))
	if err != nil {
		t.Skipf("cannot listen on %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// destOf is the address a WriteTo caller names for peer.
func destOf(peer *net.UDPConn) netip.AddrPort {
	return peer.LocalAddr().(*net.UDPAddr).AddrPort()
}

// recvN reads n datagrams from c and returns them as strings.
func recvN(t *testing.T, c *net.UDPConn, n int) []string {
	t.Helper()
	buf := make([]byte, 1500)
	var got []string
	for len(got) < n {
		_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
		m, _, err := c.ReadFromUDP(buf)
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(got), n, err)
		}
		got = append(got, string(buf[:m]))
	}
	return got
}

// writeToRoundTrip sends total datagrams from src alternating between
// two peers through w, in uneven batches that cross the slot window,
// and checks each peer receives its share in order.
func writeToRoundTrip(t *testing.T, w *Writer, a, b *net.UDPConn, tag string) {
	t.Helper()
	const total = 40
	dgrams := make([][]byte, total)
	to := make([]netip.AddrPort, total)
	var wantA, wantB []string
	for i := range dgrams {
		msg := fmt.Sprintf("%s-%03d", tag, i)
		dgrams[i] = []byte(msg)
		if i%2 == 0 {
			to[i] = destOf(a)
			wantA = append(wantA, msg)
		} else {
			to[i] = destOf(b)
			wantB = append(wantB, msg)
		}
	}
	if err := w.WriteTo(dgrams[:27], to[:27]); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteTo(dgrams[27:], to[27:]); err != nil {
		t.Fatal(err)
	}
	for _, pc := range []struct {
		c    *net.UDPConn
		want []string
	}{{a, wantA}, {b, wantB}} {
		got := recvN(t, pc.c, len(pc.want))
		for i := range got {
			if got[i] != pc.want[i] {
				t.Fatalf("datagram %d = %q, want %q", i, got[i], pc.want[i])
			}
		}
	}
}

func TestWriterWriteToInet4(t *testing.T) {
	src := listen(t, "127.0.0.1:0")
	a, b := listen(t, "127.0.0.1:0"), listen(t, "127.0.0.1:0")
	writeToRoundTrip(t, NewWriter(src, 16), a, b, "v4")
}

// TestWriterWriteToDualStack sends from a wildcard IPv6 socket to IPv4
// peers: the destinations must go out as v4-mapped sockaddr_in6.
func TestWriterWriteToDualStack(t *testing.T) {
	src := listen(t, "[::]:0")
	a, b := listen(t, "127.0.0.1:0"), listen(t, "127.0.0.1:0")
	writeToRoundTrip(t, NewWriter(src, 16), a, b, "dual")
}

func TestWriterWriteToInet6(t *testing.T) {
	src := listen(t, "[::1]:0")
	a, b := listen(t, "[::1]:0"), listen(t, "[::1]:0")
	writeToRoundTrip(t, NewWriter(src, 16), a, b, "v6")
}

// TestWriterWriteToParity sends the same batch through the sendmmsg
// path and the portable path: the peers receive the same datagrams,
// and both paths skip a destination the socket family cannot carry
// while delivering the rest and reporting an error.
func TestWriterWriteToParity(t *testing.T) {
	src := listen(t, "127.0.0.1:0")
	peer := listen(t, "127.0.0.1:0")
	kernel := NewWriter(src, 8)
	portable := NewWriter(src, 8)
	portable.mm = nil
	if !kernel.Batched() {
		t.Skip("no sendmmsg path on this platform")
	}
	unreachable := netip.MustParseAddrPort("[2001:db8::1]:9")
	var results [2][]string
	for k, w := range []*Writer{kernel, portable} {
		dgrams := [][]byte{[]byte("p0"), []byte("p1"), []byte("p2"), []byte("p3")}
		to := []netip.AddrPort{destOf(peer), destOf(peer), unreachable, destOf(peer)}
		if err := w.WriteTo(dgrams, to); err == nil {
			t.Errorf("path %d: an IPv6 destination on an IPv4 socket reported no error", k)
		}
		results[k] = recvN(t, peer, 3)
	}
	if kernel.Syscalls() != 1 || portable.Syscalls() != 4 {
		t.Errorf("Syscalls() = %d (sendmmsg), %d (portable); want 1, 4", kernel.Syscalls(), portable.Syscalls())
	}
	want := fmt.Sprint([]string{"p0", "p1", "p3"})
	if fmt.Sprint(results[0]) != want || fmt.Sprint(results[1]) != want {
		t.Fatalf("sendmmsg path got %v, portable path got %v, want %v", results[0], results[1], want)
	}
}

// TestWriterWriteToZeroAlloc pins the steady kernel-path WriteTo at
// zero allocations per batch: the server's egress flush runs once per
// read burst.
func TestWriterWriteToZeroAlloc(t *testing.T) {
	src := listen(t, "127.0.0.1:0")
	peer := listen(t, "127.0.0.1:0")
	w := NewWriter(src, 8)
	if !w.Batched() {
		t.Skip("no sendmmsg path on this platform")
	}
	dgrams := [][]byte{[]byte("z0"), []byte("z1"), []byte("z2"), []byte("z3")}
	to := []netip.AddrPort{destOf(peer), destOf(peer), destOf(peer), destOf(peer)}
	send := func() {
		if err := w.WriteTo(dgrams, to); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(50, send); allocs != 0 {
		t.Errorf("steady WriteTo allocates %.1f objects per batch, want 0", allocs)
	}
}
