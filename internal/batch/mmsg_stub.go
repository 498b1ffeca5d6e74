//go:build !linux || !(amd64 || arm64)

// Stub for platforms without the recvmmsg/sendmmsg fast path (or whose
// mmsghdr layout differs from the 64-bit one we define): constructors
// return nil and the Reader/Writer run their portable implementations.
package batch

import (
	"net"
	"net/netip"
)

type mmsgReader struct{}

func newMmsgReader(conn *net.UDPConn, bufs [][]byte) *mmsgReader { return nil }

func (m *mmsgReader) read(lens []int, addrs []netip.AddrPort) (int, error) {
	panic("batch: mmsg path on unsupported platform")
}

type mmsgWriter struct{ calls int64 }

func newMmsgWriter(conn *net.UDPConn, slots int) *mmsgWriter { return nil }

func (m *mmsgWriter) write(dgrams [][]byte) error {
	panic("batch: mmsg path on unsupported platform")
}

func (m *mmsgWriter) writeTo(dgrams [][]byte, to []netip.AddrPort) error {
	panic("batch: mmsg path on unsupported platform")
}
