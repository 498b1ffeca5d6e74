//go:build linux && (amd64 || arm64)

// recvmmsg/sendmmsg fast path. The raw syscalls are issued through
// syscall.RawConn callbacks so the runtime poller still owns the file
// descriptor: EAGAIN returns false from the callback, parking the
// goroutine until readability/writability (or the socket deadline, or
// Close) — exactly the blocking semantics of the stdlib read path,
// with one syscall per burst instead of one per datagram.
package batch

import (
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// kernel-filled datagram length, padded to 8-byte alignment (hence
// the amd64/arm64 build constraint).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

type mmsgReader struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrAny

	// Results are passed from the hoisted callback through fields: a
	// closure built per Read would allocate on every wakeup.
	n     int
	errno syscall.Errno
	fn    func(fd uintptr) bool
}

func newMmsgReader(conn *net.UDPConn, bufs [][]byte) *mmsgReader {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	m := &mmsgReader{
		rc:    rc,
		hdrs:  make([]mmsghdr, len(bufs)),
		iovs:  make([]syscall.Iovec, len(bufs)),
		names: make([]syscall.RawSockaddrAny, len(bufs)),
	}
	for i, b := range bufs {
		m.iovs[i].Base = &b[0]
		m.iovs[i].SetLen(len(b))
		m.hdrs[i].hdr.Iov = &m.iovs[i]
		m.hdrs[i].hdr.Iovlen = 1
		m.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&m.names[i]))
		m.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(m.names[i]))
	}
	m.fn = func(fd uintptr) bool {
		for {
			n, _, errno := syscall.Syscall6(sysRECVMMSG,
				fd, uintptr(unsafe.Pointer(&m.hdrs[0])), uintptr(len(m.hdrs)),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // park until readable (or deadline/close)
			}
			m.n, m.errno = int(n), errno
			return true
		}
	}
	return m
}

func (m *mmsgReader) read(lens []int, addrs []netip.AddrPort) (int, error) {
	for i := range m.hdrs {
		// The kernel overwrites Namelen per datagram; restore it.
		m.hdrs[i].hdr.Namelen = uint32(unsafe.Sizeof(m.names[0]))
	}
	if err := m.rc.Read(m.fn); err != nil {
		return 0, err // deadline expiry or closed socket, from the poller
	}
	if m.errno != 0 {
		return 0, m.errno //lint:allow hotalloc cold error path: errno boxed into the error interface
	}
	for i := 0; i < m.n; i++ {
		lens[i] = int(m.hdrs[i].len)
		addrs[i] = sockaddrToAddrPort(&m.names[i])
	}
	return m.n, nil
}

// sockaddrToAddrPort converts a kernel-filled raw sockaddr. IPv4-mapped
// IPv6 sources are unmapped so the address formats identically to what
// ReadFromUDP reports for the same peer.
func sockaddrToAddrPort(rsa *syscall.RawSockaddrAny) netip.AddrPort {
	switch rsa.Addr.Family {
	case syscall.AF_INET:
		sa := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port)) // network byte order
		return netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa := (*syscall.RawSockaddrInet6)(unsafe.Pointer(rsa))
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa.Addr).Unmap(), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}

type mmsgWriter struct {
	rc    syscall.RawConn
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6 // WriteTo destinations, one per slot
	inet6 bool                       // AF_INET6 socket: IPv4 peers go out v4-mapped

	// Window state for the hoisted callback, as in mmsgReader.
	cnt   int
	sent  int
	errno syscall.Errno
	fn    func(fd uintptr) bool

	calls int64 // sendmmsg calls issued
}

// sendmmsg issues one sendmmsg(2) over hdrs. A variable so tests can
// force the short counts a filling socket buffer produces.
var sendmmsg = func(fd uintptr, hdrs []mmsghdr) (int, syscall.Errno) {
	n, _, errno := syscall.Syscall6(sysSENDMMSG,
		fd, uintptr(unsafe.Pointer(&hdrs[0])), uintptr(len(hdrs)),
		uintptr(syscall.MSG_DONTWAIT), 0, 0)
	return int(n), errno
}

func newMmsgWriter(conn *net.UDPConn, slots int) *mmsgWriter {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil
	}
	m := &mmsgWriter{
		rc:    rc,
		hdrs:  make([]mmsghdr, slots),
		iovs:  make([]syscall.Iovec, slots),
		names: make([]syscall.RawSockaddrInet6, slots),
	}
	// The socket family decides the sockaddr layout WriteTo must
	// pass: a dual-stack socket takes only sockaddr_in6.
	_ = rc.Control(func(fd uintptr) {
		if sa, err := syscall.Getsockname(int(fd)); err == nil {
			_, m.inet6 = sa.(*syscall.SockaddrInet6)
		}
	})
	for i := range m.hdrs {
		m.hdrs[i].hdr.Iov = &m.iovs[i]
		m.hdrs[i].hdr.Iovlen = 1
	}
	m.fn = func(fd uintptr) bool {
		for {
			m.calls++
			n, errno := sendmmsg(fd, m.hdrs[m.sent:m.cnt])
			if errno == syscall.EINTR {
				continue
			}
			if errno == syscall.EAGAIN {
				return false // park until writable
			}
			if errno != 0 {
				m.errno = errno
				return true
			}
			m.sent += n
			// A short send count means the socket buffer filled part
			// way through: report progress and let the caller re-enter.
			return true
		}
	}
	return m
}

// setIov points slot i at d.
func (m *mmsgWriter) setIov(i int, d []byte) {
	if len(d) == 0 {
		m.iovs[i].Base = nil
		m.iovs[i].SetLen(0)
		return
	}
	m.iovs[i].Base = &d[0]
	m.iovs[i].SetLen(len(d))
}

func (m *mmsgWriter) write(dgrams [][]byte) error {
	for len(dgrams) > 0 {
		n := min(len(dgrams), len(m.hdrs))
		for i := 0; i < n; i++ {
			m.setIov(i, dgrams[i])
			// Connected socket: the destination comes from the
			// connection.
			m.hdrs[i].hdr.Name, m.hdrs[i].hdr.Namelen = nil, 0
		}
		m.cnt, m.sent, m.errno = n, 0, 0
		for m.sent < m.cnt {
			if err := m.rc.Write(m.fn); err != nil {
				return err
			}
			if m.errno != 0 {
				return m.errno //lint:allow hotalloc cold error path: errno boxed into the error interface
			}
		}
		dgrams = dgrams[n:]
	}
	return nil
}

func (m *mmsgWriter) writeTo(dgrams [][]byte, to []netip.AddrPort) error {
	var first syscall.Errno
	for len(dgrams) > 0 {
		n := min(len(dgrams), len(m.hdrs))
		k := 0
		for i := 0; i < n; i++ {
			if !m.setName(k, to[i]) {
				if first == 0 {
					first = syscall.EAFNOSUPPORT
				}
				continue
			}
			m.setIov(k, dgrams[i])
			k++
		}
		m.cnt, m.sent, m.errno = k, 0, 0
		for m.sent < m.cnt {
			if err := m.rc.Write(m.fn); err != nil {
				return err
			}
			if m.errno != 0 {
				// sendmmsg fails only on the first message of its
				// window: step over it and send the rest.
				if first == 0 {
					first = m.errno
				}
				m.errno = 0
				m.sent++
			}
		}
		dgrams, to = dgrams[n:], to[n:]
	}
	if first != 0 {
		return first //lint:allow hotalloc cold error path: errno boxed into the error interface
	}
	return nil
}

// setName writes ap as slot i's destination in the socket's family,
// reporting false when that family cannot carry it.
func (m *mmsgWriter) setName(i int, ap netip.AddrPort) bool {
	a, port := ap.Addr(), ap.Port()
	sa := &m.names[i]
	h := &m.hdrs[i].hdr
	h.Name = (*byte)(unsafe.Pointer(sa))
	if m.inet6 {
		if !a.IsValid() {
			return false
		}
		*sa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: a.As16()}
		putPort(&sa.Port, port)
		h.Namelen = syscall.SizeofSockaddrInet6
		return true
	}
	if !a.Unmap().Is4() {
		return false
	}
	sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
	a16 := a.As16() // v4-mapped: the IPv4 address is the last 4 bytes
	*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
	copy(sa4.Addr[:], a16[12:])
	putPort(&sa4.Port, port)
	h.Namelen = syscall.SizeofSockaddrInet4
	return true
}

// putPort stores port in network byte order.
func putPort(dst *uint16, port uint16) {
	p := (*[2]byte)(unsafe.Pointer(dst))
	p[0], p[1] = byte(port>>8), byte(port)
}
