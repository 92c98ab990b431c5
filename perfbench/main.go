// Command perfbench is the repository's end-to-end benchmark. It runs
// the real numastream.StartSender → numastream.StartReceiver pipeline
// over loopback, in this one process, on seeded tomography projections,
// and checks that every chunk arrives exactly once and byte-identical.
//
//	bash perfbench/run.sh --workload tomo-1m --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it reports per-layer metrics instead: stage shares read
// from the pipeline's own Metrics registries, a ladder of timed calls
// into each layer's public functions on the same chunks, and the cost of
// tracing itself; the traced phase's spans are written as Chrome-trace
// JSON under --outdir. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics; the exit
// code is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// workload is one input shape the benchmark streams. Each stresses a
// different layer; BENCHMARK.json gives the reason for each.
type workload struct {
	name    string
	streams int // concurrent senders, one TCP connection each
	// Projection geometry and detector noise; one chunk is one
	// width×height uint16 frame.
	width, height int
	noiseSigma    float64 // 0 keeps the tomo default
	quantStep     int     // 0 keeps the tomo default
	angles        int     // distinct projections in the payload set
	compression   bool
	shards        int  // receiver shards; 0 is the single-inbox receiver
	exactlyOnce   bool // receiver ledger on
	// rate is the open-loop offered load per stream in chunks/s; 0 is a
	// closed loop, where the next chunk is handed over as soon as the
	// sender asks for it.
	rate float64
}

func (w workload) chunkBytes() int { return w.width * w.height * 2 }

var workloads = []workload{
	// Shaped like the paper's Fig. 12 stream: the codec is nearly all
	// of the CPU, so codec changes show and transport changes barely do.
	{name: "tomo-1m", streams: 1, width: 1024, height: 512, angles: 32, compression: true},
	// Per-chunk costs only: no codec, two streams into the sharded,
	// exactly-once gateway, tens of thousands of chunks per second.
	{name: "fanin-16k", streams: 2, width: 128, height: 64, angles: 256, shards: 2, exactlyOnce: true},
	// Noise-dominated frames take the codec's short-match path, offered
	// on a fixed schedule: 140 chunks/s is a third of what a 2-vCPU host
	// sustains closed-loop when its cores run slow, a fifth when they run
	// fast, so the backlog stays bounded either way. BENCHMARK.json does
	// not list it: on a shared 2-vCPU host its p99 latency, set by the
	// host's own scheduling stalls, varies between runs by more than any
	// bound that would still catch a regression.
	{name: "noisy-paced", streams: 1, width: 512, height: 256, noiseSigma: 200, quantStep: 1,
		angles: 64, compression: true, rate: 140},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs one workload and prints the report. It returns
// the process exit code: 0 when every output check passed, 1 when the
// run completed but a check failed, 2 when no result could be produced.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed for the phantom and the detector noise")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics and a Chrome trace")
	outdir := fs.String("outdir", ".bench_build", "directory for trace files")
	corruptRef := fs.Int64("corrupt-ref", -1, "flip one byte of the reference for this sequence number of stream 0 (checks that the output check bites)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}

	set := newPayloadSet(w, *seed)
	if *corruptRef >= 0 {
		set.corrupt(0, uint64(*corruptRef))
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %d streams, %d distinct %d-byte chunks, lz4 ratio %.4f\n",
		w.name, *seed, w.streams, len(set.send), w.chunkBytes(), set.ratio)

	var (
		rep *report
		err error
	)
	if *traced == 1 {
		tracePath := filepath.Join(*outdir, fmt.Sprintf("trace-%s-seed%d.json", w.name, *seed))
		rep, err = perLayer(w, set, *seconds, tracePath, stdout)
	} else {
		rep, err = endToEnd(w, set, *seconds, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	printTable(stdout, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printTable prints every metric by name with its unit, one per line.
func printTable(w io.Writer, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	ratio := 0.0
	if rep.Attempted > 0 {
		ratio = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(w, "  %-36s %14.6g ratio (%d of %d chunks)\n", "failed_ratio", ratio, rep.Failed, rep.Attempted)
}
