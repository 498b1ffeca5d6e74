package main

import (
	"bufio"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"chunks/internal/batch"
)

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rcvbufErrors reads the host's UDP RcvbufErrors counter from
// /proc/net/snmp: datagrams the kernel dropped because a socket's
// receive buffer was full. It returns -1 when the file is unreadable.
func rcvbufErrors() int64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var header []string
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Udp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for i, h := range header {
			if h == "RcvbufErrors" && i < len(fields) {
				v, err := strconv.ParseInt(fields[i], 10, 64)
				if err != nil {
					return -1
				}
				return v
			}
		}
		return -1
	}
	return -1
}

// dropsSince returns the RcvbufErrors delta since before, or -1 when
// either reading failed.
func dropsSince(before int64) int64 {
	after := rcvbufErrors()
	if before < 0 || after < 0 {
		return -1
	}
	return after - before
}

// liveHeap runs a full collection and returns the bytes still in use.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// recvmmsgActive reports whether batch.Reader, which core.Serve's read
// loop uses, takes the recvmmsg path on the running platform.
func recvmmsgActive() bool {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return false
	}
	defer c.Close()
	return batch.NewReader(c, 2, 64).Batched()
}
