//go:build linux && (amd64 || arm64)

package batch

import (
	"fmt"
	"net/netip"
	"syscall"
	"testing"
)

// TestWriterWriteToShortCount forces sendmmsg to accept at most two
// messages per call, as a filling socket buffer does: WriteTo must
// re-enter from the first unsent message until every datagram is out,
// in order.
func TestWriterWriteToShortCount(t *testing.T) {
	src := listen(t, "127.0.0.1:0")
	peer := listen(t, "127.0.0.1:0")
	w := NewWriter(src, 16)
	if !w.Batched() {
		t.Fatal("sendmmsg path inactive on linux")
	}
	real := sendmmsg
	calls := 0
	sendmmsg = func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
		calls++
		return real(fd, hdrs[:min(len(hdrs), 2)])
	}
	t.Cleanup(func() { sendmmsg = real })

	const total = 9
	dgrams := make([][]byte, total)
	to := make([]netip.AddrPort, total)
	for i := range dgrams {
		dgrams[i] = []byte(fmt.Sprintf("short-%d", i))
		to[i] = destOf(peer)
	}
	if err := w.WriteTo(dgrams, to); err != nil {
		t.Fatal(err)
	}
	if calls != 5 || w.Syscalls() != 5 {
		t.Errorf("sendmmsg calls = %d, Syscalls() = %d, want 5 (9 datagrams, 2 per call)", calls, w.Syscalls())
	}
	got := recvN(t, peer, total)
	for i, g := range got {
		if want := fmt.Sprintf("short-%d", i); g != want {
			t.Fatalf("datagram %d = %q, want %q", i, g, want)
		}
	}
}

// TestWriterSocketFamily pins the family probe WriteTo's sockaddr
// layout depends on.
func TestWriterSocketFamily(t *testing.T) {
	for addr, want := range map[string]bool{"127.0.0.1:0": false, "[::]:0": true} {
		if got := NewWriter(listen(t, addr), 1).mm.inet6; got != want {
			t.Errorf("%s: inet6 = %v, want %v", addr, got, want)
		}
	}
}
