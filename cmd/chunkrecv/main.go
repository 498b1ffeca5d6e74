// Chunkrecv receives a chunk transport connection over UDP, verifies
// every TPDU end-to-end with WSC-2, and optionally writes the placed
// stream to a file.
//
// Usage:
//
//	chunkrecv -listen 127.0.0.1:9911 -out received.bin
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"chunks/internal/core"
	"chunks/internal/errdet"
	"chunks/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9911", "UDP listen address")
	out := flag.String("out", "", "write the received stream to this file")
	verbose := flag.Bool("v", false, "log each TPDU verdict and frame")
	wait := flag.Duration("wait", 5*time.Minute, "give up after this long")
	telAddr := flag.String("telemetry", "", "serve live telemetry on this HTTP address (e.g. 127.0.0.1:6071); also prints a snapshot at exit")
	recvBatch := flag.Int("batch", 0, "receive batch size: 0 = default (32, recvmmsg on Linux), 1 = one datagram per wakeup")
	flag.Parse()

	var reg *telemetry.Registry
	if *telAddr != "" {
		reg = telemetry.New(0)
		tsrv, err := telemetry.Serve(*telAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry on http://%v/telemetry\n", tsrv.Addr())
	}

	verified, failed := 0, 0
	frames := 0
	srv, err := core.Serve(*listen, core.Config{
		Telemetry: reg,
		RecvBatch: *recvBatch,
		OnTPDU: func(tid uint32, v errdet.Verdict) {
			if v == errdet.VerdictOK {
				verified++
			} else {
				failed++
				log.Printf("TPDU %d: %v", tid, v)
			}
			if *verbose {
				log.Printf("TPDU %d: %v", tid, v)
			}
		},
		OnFrame: func(xid uint32, data []byte) {
			frames++
			if *verbose {
				log.Printf("frame %d complete: %d bytes", xid, len(data))
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Shutdown()
	fmt.Printf("listening on %v\n", srv.Addr())

	deadline := time.Now().Add(*wait)
	for !srv.Closed() && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	// Grace period for retransmissions of the tail.
	settle := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(settle) {
		time.Sleep(20 * time.Millisecond)
	}

	stream := srv.Stream()
	fmt.Printf("received %d bytes; TPDUs verified %d, failed %d; frames %d\n",
		len(stream), verified, failed, frames)
	if reg != nil {
		reg.Snapshot().WriteText(os.Stdout)
	}
	for _, f := range srv.Findings() {
		log.Printf("finding: %v", f)
	}
	if *out != "" {
		if err := os.WriteFile(*out, stream, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if failed > 0 {
		os.Exit(1)
	}
}
