// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against core.Serve over loopback UDP inside a single
// process, checks every delivered byte, and prints the end-to-end
// metrics (--trace 0) or the per-layer ledger of a traced replay
// (--trace 1) as the last line of standard output.
//
//	go run . --workload fanin --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metric definitions and the
// layer-to-end-to-end prediction table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// round is what one fixed-size repetition of a workload measured.
type round struct {
	setup     time.Duration   // Serve until every connection's first TPDU is ACKed
	span      time.Duration   // first send until the last TPDU is verified
	goodBytes int64           // verified application bytes
	dgramsIn  int64           // server datagrams_in at the end of the span
	cpu       time.Duration   // process user+sys over the span
	lat       []time.Duration // per-TPDU hand-off to verified
	lag       []time.Duration // open loop only: send time minus due time, per datagram
	heapLive  int64           // server-held heap after GC, bytes
	conns     int

	attempted int64 // TPDUs
	failed    int64 // TPDUs not verified and ACKed by the end
	sent      int64 // datagrams the client side handed to its socket
	received  int64 // server datagrams_in at the end of the round
	junk      int64 // undecodable datagrams among them
	drops     int64 // kernel UDP RcvbufErrors over the round (-1: unreadable)
	resends   int64 // TPDU retransmissions by the client side
	stalls    int64 // Writes that blocked on the window (bulk)

	wscBytes int64 // server WSC-2 kernel bytes (telemetry)

	mismatch []string // correctness failures
}

// workload runs fixed-size rounds of one traffic shape.
type workload interface {
	// round runs one repetition. capture, when non-nil, receives the
	// datagram stream the client side sent, in order.
	round(capture *stream) (*round, error)
	// replayInput returns the stream the traced run replays and the
	// expected payload per connection ID.
	replayInput(capture *stream) (*stream, map[uint32][]byte, error)
	// selfTest flips one expected byte, asserts that the check then
	// fails, and restores the byte.
	selfTest(rng *rand.Rand) error
}

var workloadNames = []string{"bulk", "fanin", "disorder"}

func newWorkload(name string, seed int64, flip bool) (workload, error) {
	switch name {
	case "bulk":
		return newBulk(seed, flip), nil
	case "fanin":
		return newFanin(seed, flip)
	case "disorder":
		return newDisorder(seed, flip)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// roundsLimit stops adding rounds so that a run, traced replay
// included, ends well inside the 180 s a run may take.
const roundsLimit = 75 * time.Second

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 10, "seconds of measurement (whole rounds, at least 3)")
	trace := flag.Int("trace", 0, "1: print the per-layer ledger of a traced replay instead of end-to-end metrics")
	outDir := flag.String("out", ".bench_build/results", "directory for the result record and the span file")
	commit := flag.String("commit", "unknown", "commit being measured, for the environment block")
	flip := flag.Bool("flip-byte", false, "corrupt one expected byte: the run must then fail its correctness check")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds < 1 {
		fatalf("--seconds must be positive")
	}

	start := time.Now()
	w, err := newWorkload(*name, *seed, *flip)
	if err != nil {
		fatalf("%v", err)
	}
	env := environment(*commit)

	// Round 0 warms caches and the heap and is checked but not
	// measured; the traced run captures its stream.
	var capture *stream
	if *trace == 1 {
		capture = &stream{}
	}
	warm, err := w.round(capture)
	if err != nil {
		fatalf("warm-up round: %v", err)
	}
	var rounds []*round
	measureStart := time.Now()
	for i := 1; ; i++ {
		rd, err := w.round(nil)
		if err != nil {
			fatalf("round %d: %v", i, err)
		}
		rounds = append(rounds, rd)
		el := time.Since(measureStart)
		if (len(rounds) >= 3 && el >= time.Duration(*seconds)*time.Second) || time.Since(start) > roundsLimit {
			break
		}
	}

	var mismatches []string
	var attempted, failed int64
	for i, rd := range append([]*round{warm}, rounds...) {
		attempted += rd.attempted
		failed += rd.failed
		for _, m := range rd.mismatch {
			mismatches = append(mismatches, fmt.Sprintf("round %d: %s", i, m))
		}
	}
	if err := w.selfTest(rand.New(rand.NewSource(*seed))); err != nil {
		mismatches = append(mismatches, "self-test: "+err.Error())
	}

	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	detail := map[string]any{"workload": *name, "seed": *seed, "rounds": len(rounds)}
	if *trace == 0 {
		endToEnd(rounds, res.Metrics, detail)
	} else {
		in, payloads, err := w.replayInput(capture)
		if err != nil {
			fatalf("replay input: %v", err)
		}
		led, err := runLedger(*name, in, payloads, filepath.Join(*outDir, "spans-"+*name+".csv"))
		if err != nil {
			fatalf("ledger: %v", err)
		}
		perLayer(rounds, led, res.Metrics, detail)
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			mismatches = append(mismatches, fmt.Sprintf("metric %s is not finite", k))
			res.Metrics[k] = metric{0, v.Unit}
		}
	}
	res.Correct = len(mismatches) == 0 && failed == 0
	detail["mismatches"] = mismatches
	detail["elapsed_s"] = time.Since(start).Seconds()

	writeRecord(*outDir, *name, *trace, env, detail, res)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	detailLine, _ := json.Marshal(map[string]any{"detail": detail})
	line, _ := json.Marshal(res)
	fmt.Println(string(envLine))
	fmt.Println(string(detailLine))
	fmt.Println(string(line))
	if !res.Correct {
		for _, m := range mismatches {
			fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", m)
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d TPDUs not verified and ACKed\n", failed, attempted)
		}
		os.Exit(1)
	}
}

// endToEnd reduces the rounds to the end-to-end metrics: the median of
// the per-round values, so that one disturbed round does not move the
// result.
func endToEnd(rounds []*round, m map[string]metric, detail map[string]any) {
	var setup, good, dps, p50, p90, p99, cpu, heap []float64
	samples := 0
	for _, rd := range rounds {
		setup = append(setup, rd.setup.Seconds())
		good = append(good, float64(rd.goodBytes)/1e6/rd.span.Seconds())
		dps = append(dps, float64(rd.dgramsIn)/rd.span.Seconds())
		p50 = append(p50, micros(percentile(rd.lat, 0.50)))
		p90 = append(p90, micros(percentile(rd.lat, 0.90)))
		p99 = append(p99, micros(percentile(rd.lat, 0.99)))
		cpu = append(cpu, float64(rd.cpu.Nanoseconds())/float64(max(rd.dgramsIn, 1)))
		heap = append(heap, float64(rd.heapLive)/(1<<20))
		samples += len(rd.lat)
	}
	m["setup_s"] = metric{median(setup), "s"}
	m["goodput_MBps"] = metric{median(good), "MB/s"}
	m["dgrams_per_s"] = metric{median(dps), "1/s"}
	m["tpdu_p50_us"] = metric{median(p50), "us"}
	m["cpu_ns_per_dgram"] = metric{median(cpu), "ns"}
	m["heap_live_MiB"] = metric{median(heap), "MiB"}
	// The tail is reported without a bound: on a small shared host it
	// follows scheduling stalls more than the program (README).
	detail["tpdu_p90_us"] = median(p90)
	detail["tpdu_p99_us"] = median(p99)
	detail["per_round"] = map[string][]float64{"goodput_MBps": good, "dgrams_per_s": dps,
		"tpdu_p50_us": p50, "tpdu_p90_us": p90, "tpdu_p99_us": p99, "cpu_ns_per_dgram": cpu, "setup_s": setup}
	detail["latency_samples_per_round"] = len(rounds[0].lat)
	detail["latency_samples"] = samples
	detail["ledger"] = gapLedger(rounds)
}

// gapLedger is the datagram ledger seen from outside the server:
// datagrams the client side sent minus the server's datagrams_in,
// split into junk sent on purpose and kernel receive-buffer drops.
func gapLedger(rounds []*round) map[string]any {
	var sent, in, junk, drops, resends int64
	readable := true
	for _, rd := range rounds {
		sent += rd.sent
		in += rd.received
		junk += rd.junk
		resends += rd.resends
		if rd.drops < 0 {
			readable = false
		}
		drops += rd.drops
	}
	out := map[string]any{"sent": sent, "datagrams_in": in, "gap": sent - in, "junk_sent": junk, "tpdu_resends": resends}
	if readable {
		out["kernel_drops"] = drops
		out["unexplained"] = sent - in - junk - drops
	} else {
		out["kernel_drops"] = "unreadable"
	}
	return out
}

// environment is the block every result carries (ROADMAP aim 1).
func environment(commit string) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit,
		"recvmmsg":   recvmmsgActive(),
		"network":    "loopback UDP, single host",
	}
}

func writeRecord(dir, name string, trace int, env, detail map[string]any, res result) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result record:", err)
		return
	}
	rec := map[string]any{"env": env, "detail": detail, "result": res}
	b, _ := json.MarshalIndent(rec, "", "  ")
	path := filepath.Join(dir, fmt.Sprintf("%s-trace%d.json", name, trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: result record:", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// median returns the middle value (mean of the two middle values for
// an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of d (0 for none).
func percentile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerUnits gives every per-layer metric its unit.
var layerUnits = map[string]string{
	"batch.read_ns_per_dgram":            "ns",
	"batch.dgrams_per_read":              "count",
	"batch.write_ns_per_dgram":           "ns",
	"packet.decode_ns_per_dgram":         "ns",
	"shard.route_ns_per_chunk":           "ns",
	"transport.handle_self_ns_per_chunk": "ns",
	"transport.ack_out_ns_per_ack":       "ns",
	"transport.acks_per_dgram":           "count",
	"transport.sender_write_ns_per_tpdu": "ns",
	"transport.retx_per_tpdu":            "count",
	"transport.bytes_per_conn":           "B",
	"errdet.ingest_ns_per_chunk":         "ns",
	"errdet.wsc_bytes_per_dgram":         "B",
	"vr.add_ns_per_chunk":                "ns",
	"vr.fragments_per_tpdu":              "count",
	"vr.dup_elem_frac":                   "frac",
	"core.inject_ns_per_dgram":           "ns",
	"core.dgrams_unaccounted":            "count",
	"core.junk_sent":                     "count",
	"core.kernel_drops":                  "count",
	"core.window_stalls":                 "count",
	"core.fail_frac":                     "frac",
	"ledger.decode_frac":                 "frac",
	"ledger.route_frac":                  "frac",
	"ledger.handle_frac":                 "frac",
	"ledger.ack_out_frac":                "frac",
	"ledger.residue_frac":                "frac",
	"ledger.trace_overhead_frac":         "frac",
	"gen.lag_p99_us":                     "us",
}

// perLayer merges the traced replay's ledger with the counts of the
// live rounds (medians over rounds).
func perLayer(rounds []*round, led map[string]float64, m map[string]metric, detail map[string]any) {
	// Retransmissions are rare events, so their rate is pooled over the
	// rounds; a per-round median would read 0.
	var resends, attempted int64
	var perConn, wsc, gap, junk, drops, stalls, fail, lag []float64
	for _, rd := range rounds {
		resends += rd.resends
		attempted += rd.attempted
		perConn = append(perConn, float64(rd.heapLive)/float64(rd.conns))
		wsc = append(wsc, float64(rd.wscBytes)/float64(max(rd.received, 1)))
		gap = append(gap, float64(rd.sent-rd.received))
		junk = append(junk, float64(rd.junk))
		drops = append(drops, float64(rd.drops))
		stalls = append(stalls, float64(rd.stalls))
		fail = append(fail, float64(rd.failed)/float64(rd.attempted))
		lag = append(lag, micros(percentile(rd.lag, 0.99)))
	}
	vals := map[string]float64{
		"transport.retx_per_tpdu":    float64(resends) / float64(attempted),
		"transport.bytes_per_conn":   median(perConn),
		"errdet.wsc_bytes_per_dgram": median(wsc),
		"core.dgrams_unaccounted":    median(gap),
		"core.junk_sent":             median(junk),
		"core.kernel_drops":          median(drops),
		"core.window_stalls":         median(stalls),
		"core.fail_frac":             median(fail),
		"gen.lag_p99_us":             median(lag),
	}
	for k, v := range led {
		if k == "ledger.replay_dgrams" || k == "ledger.span_floor_ns" {
			detail[k] = v // properties of the replay, not of a layer
			continue
		}
		vals[k] = v
	}
	for k, v := range vals {
		u, ok := layerUnits[k]
		if !ok {
			panic("perfbench: no unit for " + k)
		}
		m[k] = metric{v, u}
	}
	detail["ledger"] = gapLedger(rounds)
}
