package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"numastream"
	"numastream/internal/bufpool"
	"numastream/internal/hw"
	"numastream/internal/lz4"
	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/pipeline"
	"numastream/internal/queue"
	"numastream/internal/trace"
)

const (
	// traceLimit bounds the events kept from the traced pipeline phase;
	// later events are dropped and the file says how many.
	traceLimit = 200_000
	// headerLen is the pipeline's per-chunk header (seq, raw length,
	// stream, flags, CRC-32C), sent as the first part of each frame.
	headerLen = 21
	// opsPerPass is how many calls a pass of a per-call rung makes.
	opsPerPass = 4096
	// setupReps is how many times the set-up rungs repeat.
	setupReps = 20
)

// castagnoli is the CRC table pipeline framing uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcSink keeps the rungs' checksums live so no call is optimized away.
var crcSink uint32

// perLayer runs the pipeline untraced, then traced, then the ladder of
// per-layer calls, each for a third of the measured time, and returns
// the per-layer metrics. The traced phase's spans, the Sink's per-chunk
// spans and one span per ladder pass go to tracePath.
func perLayer(w workload, set *payloadSet, seconds int, tracePath string, log io.Writer) (*report, error) {
	phase := time.Duration(seconds) * time.Second / 3
	rep := &report{}

	plain, err := runPipeline(pipeRun{w: w, set: set, window: phase}, log)
	if err != nil {
		return nil, err
	}
	goruntime.GC()
	tr := trace.New(traceLimit)
	traced, err := runPipeline(pipeRun{w: w, set: set, window: phase, tracer: tr}, log)
	if err != nil {
		return nil, err
	}
	for _, r := range []*pipeResult{plain, traced} {
		rep.Attempted += r.handed
		rep.Failed += r.failed
	}
	if plain.winChunks == 0 || traced.winChunks == 0 {
		return nil, fmt.Errorf("no chunk delivered in a measured window")
	}
	goruntime.GC()

	lt := trace.New(0)
	lad, err := runLadder(w, set, phase, lt)
	if err != nil {
		return nil, err
	}
	tr.Merge(lt)
	if err := writeTrace(tracePath, tr); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "trace: %d events (%d dropped) in %s\n", tr.Len(), tr.Dropped(), tracePath)
	rep.Correct = rep.Failed == 0

	_, lagP99, _ := plain.lag.medians()
	m := map[string]metric{
		"lz4.compress_ns_per_byte":      {lad.compress.nsPerByte(), "ns/B"},
		"lz4.decompress_ns_per_byte":    {lad.decompress.nsPerByte(), "ns/B"},
		"lz4.ratio":                     {set.ratio, "ratio"},
		"lz4.compress_vs_model":         {lad.compress.bytesPerSec() / hw.CompressRate, "x"},
		"lz4.decompress_vs_model":       {lad.decompress.bytesPerSec() / hw.DecompressRate, "x"},
		"crc.ns_per_byte":               {lad.crc.nsPerByte(), "ns/B"},
		"msgq.frame_ns":                 {lad.frame.nsPerOp(), "ns"},
		"msgq.overhead_bytes_per_frame": {lad.frameOverhead, "B"},
		"msgq.connect_ms":               {lad.connectMs, "ms"},
		"runtime.generate_us":           {lad.generateUs, "us"},
		"queue.hop_ns":                  {lad.hop.nsPerOp(), "ns"},
		"bufpool.lease_ns":              {lad.lease.nsPerOp(), "ns"},
		"bufpool.hit_ratio":             {hitRatio(plain.poolBefore, plain.poolAfter), "ratio"},
		"pipeline.ledger_admit_ns":      {lad.admit.nsPerOp(), "ns"},
		"metrics.observe_ns":            {lad.observe.nsPerOp(), "ns"},
		"ladder.serial_gbps":            {lad.serial.bytesPerSec() * 8 / 1e9, "Gbps"},
		"ladder.explained_share":        {lad.explained(w, plain), "share"},
		"trace.overhead_share":          {1 - traced.gbps()/plain.gbps(), "share"},
		"gen.lag_p99_ms":                {lagP99 / 1e6, "ms"},
	}
	// Stage and queue shares come from the untraced phase's registries.
	win := float64(plain.winDur)
	workers := map[string]int{
		"compress":   plain.sendCfg.Count(numastream.Compress) * w.streams,
		"send":       plain.sendCfg.Count(numastream.Send) * w.streams,
		"receive":    plain.recvCfg.Count(numastream.Receive),
		"decompress": plain.recvCfg.Count(numastream.Decompress),
	}
	for _, stage := range []string{"compress", "send", "receive", "decompress"} {
		busy := 0.0
		if n := workers[stage]; n > 0 {
			busy = float64(histSumDelta(plain.before, plain.after, stage+"_latency_ns")) / (win * float64(n))
		}
		m["pipeline."+stage+".busy_share"] = metric{busy, "share"}
		m["pipeline."+stage+".qwait_p50_us"] = metric{
			histQuantileDelta(plain.before, plain.after, stage+"_qwait_ns", 0.5) / 1e3, "us"}
	}
	// A queue side's blocked share is its blocked time over the window,
	// per goroutine on that side: the feeder (one per stream) or a pool.
	feeders := w.streams
	sendqPut := feeders
	if workers["compress"] > 0 {
		sendqPut = workers["compress"]
	}
	parties := map[string][2]int{
		"compq": {feeders, workers["compress"]},
		"sendq": {sendqPut, workers["send"]},
		"decq":  {workers["receive"], workers["decompress"]},
	}
	for _, q := range []string{"compq", "sendq", "decq"} {
		for i, side := range []string{"put", "get"} {
			share := 0.0
			if n := parties[q][i]; n > 0 {
				name := q + "_" + side + "_blocked_secs"
				blocked := plain.after.gauges[name] - plain.before.gauges[name]
				share = blocked / plain.winDur.Seconds() / float64(n)
			}
			m["pipeline."+q+"."+side+"_blocked_share"] = metric{share, "share"}
		}
	}
	rep.Metrics = m
	return rep, nil
}

func hitRatio(a, b bufpool.Stats) float64 {
	hits := b.Hits - a.Hits
	all := hits + (b.Misses - a.Misses) + (b.Steals - a.Steals)
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

func writeTrace(path string, tr *trace.Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// rung is one timed ladder step: passes of calls into one layer.
type rung struct {
	wall, cpu  time.Duration
	ops, bytes int64
}

func (r rung) nsPerOp() float64     { return float64(r.wall) / float64(r.ops) }
func (r rung) cpuPerOp() float64    { return float64(r.cpu) / float64(r.ops) }
func (r rung) nsPerByte() float64   { return float64(r.wall) / float64(r.bytes) }
func (r rung) bytesPerSec() float64 { return float64(r.bytes) / r.wall.Seconds() }

// ladderResult is every rung, run on the workload's own chunks.
type ladderResult struct {
	compress, decompress, crc, check, serial rung // ops = chunks
	frame, hop, lease, admit, observe        rung // ops = calls
	frameOverhead                            float64
	connectMs, generateUs                    float64
}

// explained sums the rungs' CPU time per chunk, each rung counted as
// often as the pipeline makes that call for one chunk, and divides by
// the CPU time per delivered chunk the untraced pipeline measured. The
// Sink's reference comparison is the benchmark's own cost and is a rung
// too, so that the sum can account for the whole process.
func (l *ladderResult) explained(w workload, r *pipeResult) float64 {
	comp := r.sendCfg.Count(numastream.Compress) > 0
	dec := r.recvCfg.Count(numastream.Decompress) > 0
	b := func(x bool) float64 {
		if x {
			return 1
		}
		return 0
	}
	// Queue hops besides the frame rung's own inbox: Source → compq →
	// sendq (one fewer without compression), decq, and the sharded
	// gateway's per-stream delivery lane.
	hops := 1 + b(comp) + b(dec) + b(w.shards > 0)
	// Leases besides the frame rung's two part buffers: the compressed
	// block and the decompressed chunk.
	leases := b(comp) + b(dec)
	// Histogram+meter observations: one per stage done and one per
	// queue wait, plus the gateway's per-stream delivered meter.
	observes := 2*(1+b(comp)) + 1 + 2*b(dec) + 1
	perChunk := l.check.cpuPerOp() + 2*l.crc.cpuPerOp() + l.frame.cpuPerOp() +
		hops*l.hop.cpuPerOp() + leases*l.lease.cpuPerOp() + observes*l.observe.cpuPerOp() +
		b(comp)*l.compress.cpuPerOp() + b(dec)*l.decompress.cpuPerOp() +
		b(w.exactlyOnce)*l.admit.cpuPerOp()
	measured := float64(r.winCPU) / float64(r.winChunks)
	return perChunk / measured
}

// ladder times passes over one layer's public call and records one
// trace span per pass.
type ladder struct {
	tr     *trace.Tracer
	track  int
	budget time.Duration
}

// time runs pass until the rung's budget is spent (at least once).
func (l *ladder) time(name string, pass func() (ops, bytes int64, err error)) (rung, error) {
	l.track++
	var r rung
	cpu0, start := processCPU(), nowNanos()
	for {
		p0 := nowNanos()
		ops, n, err := pass()
		if err != nil {
			return r, fmt.Errorf("%s: %w", name, err)
		}
		p1 := nowNanos()
		l.tr.Add(trace.Event{Name: name, Category: "ladder", Start: float64(p0) / 1e9,
			Duration: float64(p1-p0) / 1e9, Process: "ladder", Track: l.track})
		r.ops += ops
		r.bytes += n
		if time.Duration(p1-start) >= l.budget {
			r.wall, r.cpu = time.Duration(p1-start), processCPU()-cpu0
			return r, nil
		}
	}
}

// runLadder times each layer's public functions on the workload's own
// chunks, one layer at a time, in budget split evenly across the rungs.
func runLadder(w workload, set *payloadSet, budget time.Duration, tr *trace.Tracer) (*ladderResult, error) {
	l := &ladder{tr: tr, budget: budget / 10}
	res := &ladderResult{}
	size := w.chunkBytes()

	// The compressed blocks, and what the pipeline would put on the
	// wire: the block, or the raw chunk when compression is off or does
	// not shrink it.
	packed := make([][]byte, len(set.send))
	wire := make([][]byte, len(set.send))
	for i, raw := range set.send {
		packed[i] = lz4.Compress(raw)
		wire[i] = raw
		if w.compression && len(packed[i]) < len(raw) {
			wire[i] = packed[i]
		}
	}
	dst := make([]byte, lz4.CompressBound(size))
	out := make([]byte, size)
	overChunks := func(f func(i int) error) func() (int64, int64, error) {
		return func() (int64, int64, error) {
			for i := range set.send {
				if err := f(i); err != nil {
					return 0, 0, err
				}
			}
			return int64(len(set.send)), int64(len(set.send) * size), nil
		}
	}
	var err error
	if res.compress, err = l.time("lz4.CompressBlock", overChunks(func(i int) error {
		_, err := lz4.CompressBlock(set.send[i], dst)
		return err
	})); err != nil {
		return nil, err
	}
	if res.decompress, err = l.time("lz4.DecompressBlock", overChunks(func(i int) error {
		_, err := lz4.DecompressBlock(packed[i], out)
		return err
	})); err != nil {
		return nil, err
	}
	crcPass := func() (int64, int64, error) {
		n := 0
		for _, p := range wire {
			crcSink += crc32.Checksum(p, castagnoli)
			n += len(p)
		}
		return int64(len(wire)), int64(n), nil
	}
	if res.crc, err = l.time("crc32.Checksum", crcPass); err != nil {
		return nil, err
	}
	if res.check, err = l.time("bytes.Equal", overChunks(func(i int) error {
		if !bytes.Equal(set.send[i], set.ref[i]) {
			return fmt.Errorf("chunk %d differs from its reference", i)
		}
		return nil
	})); err != nil {
		return nil, err
	}
	if res.serial, err = l.time("serial", overChunks(func(i int) error {
		n, err := lz4.CompressBlock(set.send[i], dst)
		if err != nil {
			return err
		}
		crcSink += crc32.Checksum(dst[:n], castagnoli)
		_, err = lz4.DecompressBlock(dst[:n], out)
		return err
	})); err != nil {
		return nil, err
	}
	if err := frameRungs(l, res, wire); err != nil {
		return nil, err
	}
	if res.hop, err = l.time("queue.Put/Get", hopPass(set.send[0])); err != nil {
		return nil, err
	}
	pool := bufpool.New(1)
	if res.lease, err = l.time("bufpool.Get/Release", func() (int64, int64, error) {
		for i := 0; i < opsPerPass; i++ {
			pool.Get(0, size).Release()
		}
		return opsPerPass, 0, nil
	}); err != nil {
		return nil, err
	}
	ledger := pipeline.NewLedger(metrics.NewRegistry(), 0)
	var seq uint64
	if res.admit, err = l.time("Ledger.Admit", func() (int64, int64, error) {
		for i := 0; i < opsPerPass; i++ {
			if !ledger.Admit(0, seq) {
				return 0, 0, fmt.Errorf("fresh seq %d refused", seq)
			}
			seq++
		}
		return opsPerPass, 0, nil
	}); err != nil {
		return nil, err
	}
	reg := metrics.NewRegistry()
	hist, meter := reg.Histogram("rung_latency_ns"), reg.Meter("rung")
	if res.observe, err = l.time("Histogram.ObserveDuration+Meter.Add", func() (int64, int64, error) {
		for i := 0; i < opsPerPass; i++ {
			hist.ObserveDuration(time.Duration(i))
			meter.Add(size)
		}
		return opsPerPass, 0, nil
	}); err != nil {
		return nil, err
	}

	_, info, gen := configInputs(w)
	t0 := time.Now()
	for i := 0; i < setupReps; i++ {
		if _, err := numastream.GenerateSenderConfig("sender", info, gen); err != nil {
			return nil, err
		}
		if _, err := numastream.GenerateReceiverConfig("gateway", info, gen); err != nil {
			return nil, err
		}
	}
	res.generateUs = float64(time.Since(t0)) / setupReps / 1e3
	return res, nil
}

// hopPass moves pipeline chunks through one bounded queue between two
// goroutines, at the pipeline's default queue capacity.
func hopPass(data []byte) func() (int64, int64, error) {
	return func() (int64, int64, error) {
		q := queue.New[pipeline.Chunk](16)
		defer q.Close() // unblocks the producer if Get fails
		go func() {
			for i := 0; i < opsPerPass; i++ {
				if q.Put(pipeline.Chunk{Seq: uint64(i), Data: data, RawLen: len(data)}) != nil {
					return
				}
			}
		}()
		for i := 0; i < opsPerPass; i++ {
			if _, err := q.Get(); err != nil {
				return 0, 0, err
			}
		}
		return opsPerPass, 0, nil
	}
}

// frameRungs times msgq frames (a 21-byte header plus the wire payload,
// Push.Send to Pull.RecvDelivery over loopback, pooled receive buffers
// as in the gateway), counts the framing bytes read per frame, and
// times Push.Connect + WaitLive.
func frameRungs(l *ladder, res *ladderResult, wire [][]byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	counted := &countingListener{Listener: ln}
	pull := msgq.NewPullFromListener(counted)
	defer pull.Close()
	pull.SetBufferPool(bufpool.New(1), 0)
	addr := ln.Addr().String()

	push := msgq.NewPush()
	defer push.Close()
	push.Connect(addr)
	if err := push.WaitLiveTimeout(1, drainTimeout); err != nil {
		return err
	}
	var hdr [headerLen]byte
	// One frame first, so the handshake's bytes are read before the
	// count starts.
	if err := push.Send(msgq.Message{hdr[:], wire[0]}); err != nil {
		return err
	}
	d, err := pull.RecvDelivery()
	if err != nil {
		return err
	}
	d.Frame.Release()
	base := counted.n.Load()

	res.frame, err = l.time("msgq.Send/RecvDelivery", func() (int64, int64, error) {
		sent := make(chan error, 1)
		go func() {
			msg := msgq.Message{hdr[:], nil}
			for _, p := range wire {
				msg[1] = p
				if err := push.Send(msg); err != nil {
					sent <- err
					pull.Close() // unblocks RecvDelivery below
					return
				}
			}
			sent <- nil
		}()
		n := 0
		for range wire {
			d, err := pull.RecvDelivery()
			if err != nil {
				return 0, 0, err
			}
			n += len(d.Msg[0]) + len(d.Msg[1])
			d.Frame.Release()
		}
		return int64(len(wire)), int64(n), <-sent
	})
	if err != nil {
		return err
	}
	res.frameOverhead = float64(counted.n.Load()-base-res.frame.bytes) / float64(res.frame.ops)

	var ms []float64
	for i := 0; i < setupReps; i++ {
		p := msgq.NewPush()
		t0 := time.Now()
		p.Connect(addr)
		err := p.WaitLiveTimeout(1, drainTimeout)
		ms = append(ms, float64(time.Since(t0))/1e6)
		p.Close()
		if err != nil {
			return fmt.Errorf("connect: %w", err)
		}
	}
	res.connectMs = median(ms)
	return nil
}
