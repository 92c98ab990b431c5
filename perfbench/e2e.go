package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"numastream"
	"numastream/internal/bufpool"
	"numastream/internal/pipeline"
	"numastream/internal/trace"
)

const (
	// warmup is skipped after the first delivery before the measured
	// window opens: queues fill and socket buffers grow in it.
	warmup = time.Second
	// setupTrials extra pipelines are set up and torn down before the
	// measured one; setup_s is the median over all of them.
	setupTrials = 30
	// trialChunks is what each stream of a set-up trial hands over.
	trialChunks = 2
	// drainTimeout bounds the wait for in-flight chunks after the
	// sources stop, and for the receiver to return after its Stop.
	drainTimeout = 30 * time.Second
)

// pipeRun configures one sender → gateway pipeline.
type pipeRun struct {
	w   workload
	set *payloadSet
	// chunks > 0 makes each stream hand over exactly that many chunks
	// (a set-up trial). Otherwise the sources run until the measured
	// window, which opens warmup after the first delivery, has closed.
	chunks uint64
	window time.Duration
	tracer *trace.Tracer // nil: untraced
}

// pipeResult is what one pipeline run measured.
type pipeResult struct {
	setup          time.Duration // first call into the program → first Sink delivery
	handed, failed int64
	// The measured window: raw bytes and chunks whose Sink call fell in
	// it, its length, and the process CPU time spent during it.
	winBytes, winChunks int64
	winDur, winCPU      time.Duration
	// Per-chunk latency and generator lag in the window.
	lat, lag *blockQuantiles
	// Whole-run wire accounting: bytes read off the gateway's sockets
	// and raw bytes delivered.
	wireBytes, rawBytes   int64
	before, after         regSnap // pipeline registries at the window's edges
	poolBefore, poolAfter bufpool.Stats
	sendCfg, recvCfg      numastream.NodeConfig
}

// gbps is raw gigabits delivered per second in the window.
func (r *pipeResult) gbps() float64 { return float64(r.winBytes) * 8 / r.winDur.Seconds() / 1e9 }

// checker is the Sink: it compares every delivered chunk with its
// reference inside the call (pooled Data is recycled after it returns),
// records exactly-once delivery per (stream, seq), and times chunks
// whose delivery falls inside the measured window.
type checker struct {
	set     *payloadSet
	streams []*streamState

	winStart, winEnd atomic.Int64 // nowNanos; 0 = not yet

	first     chan struct{}
	firstOnce sync.Once
	firstAt   atomic.Int64

	unique, corrupt, dups, unstamped atomic.Int64
	rawBytes, winBytes, winChunks    atomic.Int64
	lat, lag                         blockQuantiles

	tracer      *trace.Tracer
	traceOrigin int64
}

// streamState is one stream's handoff record and delivery bitmap.
type streamState struct {
	id     uint32
	stamps stampRing
	handed atomic.Uint64 // chunks the Source has returned so far

	mu   sync.Mutex
	seen []uint64
}

// mark records the delivery of seq and reports whether it is the first.
func (s *streamState) mark(seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := seq / 64
	for uint64(len(s.seen)) <= i {
		s.seen = append(s.seen, 0)
	}
	bit := uint64(1) << (seq % 64)
	if s.seen[i]&bit != 0 {
		return false
	}
	s.seen[i] |= bit
	return true
}

func (k *checker) inWindow(ns int64) bool {
	start := k.winStart.Load()
	if start == 0 || ns < start {
		return false
	}
	end := k.winEnd.Load()
	return end == 0 || ns < end
}

func (k *checker) sink(c numastream.Chunk) error {
	now := nowNanos()
	if int(c.Stream) >= len(k.streams) {
		k.corrupt.Add(1)
		return nil
	}
	st := k.streams[c.Stream]
	if c.Seq >= st.handed.Load() {
		k.corrupt.Add(1) // never handed over
		return nil
	}
	if !bytes.Equal(c.Data, k.set.reference(c.Stream, c.Seq)) {
		k.corrupt.Add(1)
	}
	if !st.mark(c.Seq) {
		k.dups.Add(1)
		return nil
	}
	k.unique.Add(1)
	k.rawBytes.Add(int64(len(c.Data)))
	k.firstOnce.Do(func() {
		k.firstAt.Store(now)
		close(k.first)
	})
	origin, ok := st.stamps.get(c.Seq)
	if !ok {
		k.unstamped.Add(1) // more than ringSize chunks in flight
		return nil
	}
	if k.inWindow(now) {
		k.winBytes.Add(int64(len(c.Data)))
		k.winChunks.Add(1)
		k.lat.add(now - origin)
	}
	if k.tracer != nil {
		k.tracer.Add(trace.Event{
			Name:     "chunk",
			Category: "bench",
			Start:    float64(origin-k.traceOrigin) / 1e9,
			Duration: float64(now-origin) / 1e9,
			Process:  "bench",
			Track:    int(c.Stream),
			Args:     map[string]any{"seq": c.Seq},
		})
	}
	return nil
}

// source is one stream's Source: it hands over pre-generated chunks and
// stamps each one's latency origin. Closed loop: the origin is the
// handoff. Open loop: chunk k is due at start + k/rate and the origin
// is its due time, so a stall is charged to every chunk it delays.
type source struct {
	k     *checker
	st    *streamState
	set   *payloadSet
	rate  float64
	limit uint64 // 0: until stop
	stop  *atomic.Bool

	n     uint64
	start int64
}

func (g *source) next() []byte {
	if g.stop.Load() || (g.limit > 0 && g.n >= g.limit) {
		return nil
	}
	seq := g.n
	due := nowNanos()
	if g.rate > 0 {
		if seq == 0 {
			g.start = due
		}
		called := due
		due = g.start + int64(float64(seq)*1e9/g.rate)
		if wait := due - called; wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if g.stop.Load() {
			return nil
		}
	}
	handoff := nowNanos()
	origin := handoff
	if g.rate > 0 {
		origin = due
	}
	g.st.stamps.put(seq, origin)
	g.n++
	g.st.handed.Store(g.n)
	if g.k.inWindow(handoff) {
		g.k.lag.add(handoff - due)
	}
	return g.set.chunk(g.st.id, seq)
}

// countingListener counts the bytes the gateway reads off its accepted
// connections. Only the read side is wrapped: the sender dials its own
// *net.TCPConn, so its vectored write path is untouched.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// configInputs discovers this host's topology and returns what the
// configuration generator needs for w: worker counts are the program's
// own choice for the host, never set by the benchmark.
func configInputs(w workload) (numastream.HostTopology, numastream.TopologyInfo, numastream.GenerateOptions) {
	host, _ := numastream.DiscoverTopology()
	info := numastream.TopologyInfo{
		Sockets:        len(host.Nodes),
		CoresPerSocket: len(host.Nodes[0].CPUs),
		NICSocket:      len(host.Nodes) - 1,
	}
	return host, info, numastream.GenerateOptions{Streams: w.streams, Compression: w.compression}
}

// runPipeline sets up one sender → gateway pipeline on loopback, streams
// through it, drains it and accounts for every chunk handed over.
func runPipeline(p pipeRun, log io.Writer) (*pipeResult, error) {
	w := p.w
	res := &pipeResult{}
	t0 := nowNanos()

	// Set-up: everything from here to the first Sink delivery.
	host, info, gen := configInputs(w)
	var err error
	if res.recvCfg, err = numastream.GenerateReceiverConfig("gateway", info, gen); err != nil {
		return nil, err
	}
	if res.sendCfg, err = numastream.GenerateSenderConfig("sender", info, gen); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wire := &countingListener{Listener: ln}

	k := &checker{set: p.set, first: make(chan struct{}), tracer: p.tracer}
	for s := 0; s < w.streams; s++ {
		k.streams = append(k.streams, &streamState{id: uint32(s)})
	}
	recvReg := numastream.NewRegistry()
	var ledger *pipeline.Ledger
	if w.exactlyOnce {
		ledger = pipeline.NewLedger(recvReg, 0)
	}
	stop := make(chan struct{})
	ready := make(chan string, 1)
	recvDone := make(chan error, 1)
	k.traceOrigin = nowNanos()
	go func() {
		recvDone <- numastream.StartReceiver(numastream.ReceiverOptions{
			Cfg: res.recvCfg, Topo: host, Listener: wire, Stop: stop, Ready: ready,
			Sink: k.sink, Metrics: recvReg, Tracer: p.tracer,
			Shards: w.shards, ExactlyOnce: w.exactlyOnce, Ledger: ledger,
		})
	}()
	// Senders dial only once the receiver says it is ready: the sharded
	// gateway installs its dispatch after it starts accepting on the
	// listener, and a connection accepted before that is never read.
	select {
	case <-ready:
	case err := <-recvDone:
		return nil, fmt.Errorf("receiver: %w", err)
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("receiver not ready within %v", drainTimeout)
	}

	srcStop := &atomic.Bool{}
	sendRegs := make([]*numastream.Registry, w.streams)
	sendDone := make(chan error, w.streams)
	senderStart := nowNanos()
	for s := 0; s < w.streams; s++ {
		sendRegs[s] = numastream.NewRegistry()
		src := &source{k: k, st: k.streams[s], set: p.set, rate: w.rate, limit: p.chunks, stop: srcStop}
		go func() {
			sendDone <- numastream.StartSender(numastream.SenderOptions{
				Cfg: res.sendCfg, Topo: host, Peers: []string{ln.Addr().String()},
				Source: src.next, StreamID: src.st.id, Codec: numastream.CodecFast,
				Metrics: sendRegs[s], Tracer: p.tracer,
			})
		}()
	}
	regs := append([]*numastream.Registry{recvReg}, sendRegs...)

	var runErrs []error
	select {
	case <-k.first:
		res.setup = time.Duration(k.firstAt.Load() - t0)
	case <-time.After(drainTimeout):
		runErrs = append(runErrs, fmt.Errorf("no chunk delivered within %v", drainTimeout))
	}

	if p.chunks == 0 && len(runErrs) == 0 {
		time.Sleep(time.Until(epoch.Add(time.Duration(k.firstAt.Load())).Add(warmup)))
		res.before, res.poolBefore = snapshot(regs...), bufpool.Default().Stats()
		cpu0, start := processCPU(), nowNanos()
		k.winStart.Store(start)
		time.Sleep(p.window)
		end := nowNanos()
		k.winEnd.Store(end)
		res.winCPU = processCPU() - cpu0
		res.after, res.poolAfter = snapshot(regs...), bufpool.Default().Stats()
		res.winDur = time.Duration(end - start)
	}
	srcStop.Store(true)

	for s := 0; s < w.streams; s++ {
		if err := <-sendDone; err != nil {
			runErrs = append(runErrs, fmt.Errorf("sender: %w", err))
		}
	}
	for _, st := range k.streams {
		res.handed += int64(st.handed.Load())
	}
	quarantined := func() int64 { return recvReg.CounterValue(pipeline.CtrQuarantined) }
	deadline := time.Now().Add(drainTimeout)
	for k.unique.Load()+quarantined() < res.handed && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	select {
	case err := <-recvDone:
		if err != nil {
			runErrs = append(runErrs, fmt.Errorf("receiver: %w", err))
		}
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("receiver did not return within %v of its Stop", drainTimeout)
	}
	if p.tracer != nil {
		p.tracer.AdjustProcess(res.sendCfg.Node, float64(senderStart-k.traceOrigin)/1e9)
	}

	// Every way a chunk can go wrong counts once where it is detected.
	lost := res.handed - k.unique.Load() - quarantined()
	if lost < 0 {
		lost = 0
	}
	var ledgerDups, holes int64
	if ledger != nil {
		ledgerDups = ledger.Dups()
		holes = int64(ledger.TotalHoles()) + ledger.Abandoned()
	}
	res.failed = k.corrupt.Load() + k.dups.Load() + lost + quarantined() +
		ledgerDups + holes + k.unstamped.Load() + int64(len(runErrs))
	if res.failed > 0 {
		fmt.Fprintf(log, "FAILED: handed %d, delivered %d, corrupt %d, duplicate %d, lost %d, quarantined %d, ledger dups %d, ledger holes %d, unstamped %d, errors %v\n",
			res.handed, k.unique.Load(), k.corrupt.Load(), k.dups.Load(), lost, quarantined(),
			ledgerDups, holes, k.unstamped.Load(), runErrs)
	}
	res.winBytes, res.winChunks = k.winBytes.Load(), k.winChunks.Load()
	res.lat, res.lag = &k.lat, &k.lag
	res.wireBytes, res.rawBytes = wire.n.Load(), k.rawBytes.Load()
	return res, nil
}

// endToEnd runs the set-up trials and the measured pipeline untraced
// and returns the end-to-end metrics.
func endToEnd(w workload, set *payloadSet, seconds int, log io.Writer) (*report, error) {
	rep := &report{}
	var setups []float64
	for i := 0; i < setupTrials; i++ {
		r, err := runPipeline(pipeRun{w: w, set: set, chunks: trialChunks}, log)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup.Seconds())
		rep.Attempted += r.handed
		rep.Failed += r.failed
	}
	goruntime.GC()
	r, err := runPipeline(pipeRun{w: w, set: set, window: time.Duration(seconds) * time.Second}, log)
	if err != nil {
		return nil, err
	}
	setups = append(setups, r.setup.Seconds())
	rep.Attempted += r.handed
	rep.Failed += r.failed
	if r.winChunks == 0 {
		return nil, fmt.Errorf("no chunk delivered in the measured window")
	}
	rep.Correct = rep.Failed == 0
	p50, p99, timed := r.lat.medians()
	fmt.Fprintf(log, "window %.2fs: %d chunks timed, %d chunks handed over in all runs\n",
		r.winDur.Seconds(), timed, rep.Attempted)

	rep.Metrics = map[string]metric{
		"throughput_gbps":         {r.gbps(), "Gbps"},
		"latency_p50_ms":          {p50 / 1e6, "ms"},
		"latency_p99_ms":          {p99 / 1e6, "ms"},
		"cpu_s_per_gb":            {r.winCPU.Seconds() / (float64(r.winBytes) / 1e9), "s/GB"},
		"wire_bytes_per_raw_byte": {float64(r.wireBytes) / float64(r.rawBytes), "B/B"},
		"peak_rss_mb":             {peakRSSMiB(), "MiB"},
		"setup_s":                 {median(setups), "s"},
	}
	return rep, nil
}
