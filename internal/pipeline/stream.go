package pipeline

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"numastream/internal/bufpool"
	"numastream/internal/lz4"
	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/numa"
	"numastream/internal/queue"
	"numastream/internal/runtime"
	"numastream/internal/trace"
)

// opTracer records real-mode worker activity as wall-clock trace events
// (the real-execution counterpart of hw.Machine.Tracer).
type opTracer struct {
	tr    *trace.Tracer
	start time.Time
	node  string
}

func newOpTracer(tr *trace.Tracer, node string) *opTracer {
	if tr == nil {
		return nil
	}
	return &opTracer{tr: tr, start: time.Now(), node: node}
}

// span records one operation that began at wall-clock time t0. Each
// span carries the chunk's sequence number, so one chunk's journey —
// compress → queue-wait → send → receive → queue-wait → decompress —
// can be followed across tracks in the Perfetto UI.
func (o *opTracer) span(stage string, worker int, t0 time.Time, bytes int, seq uint64) {
	o.spanFlow(stage, worker, t0, bytes, seq, 0)
}

// spanFlow is span for a stage that terminates a cross-host flow: with a
// nonzero fid the span carries the flow's consuming end, so the viewer
// draws the journey arrow from the sender's wire span into this one.
func (o *opTracer) spanFlow(stage string, worker int, t0 time.Time, bytes int, seq uint64, fid uint64) {
	if o == nil {
		return
	}
	o.tr.Add(trace.Event{
		Name:     stage,
		Category: stage,
		Start:    t0.Sub(o.start).Seconds(),
		Duration: time.Since(t0).Seconds(),
		Process:  o.node,
		Track:    worker,
		Args:     map[string]any{"bytes": bytes, "seq": seq},
		FlowID:   fid,
		FlowIn:   fid != 0,
	})
}

// stageObserver bundles the flight-recorder series of one pipeline
// stage: a throughput meter, a per-chunk service-latency histogram and a
// queue-wait histogram (time a chunk sat in the stage's inbound queue).
// Observations are a handful of uncontended atomic adds per chunk.
type stageObserver struct {
	meter *metrics.Meter
	lat   *metrics.Histogram
	qwait *metrics.Histogram
	trc   *opTracer
	stage string
}

func newStageObserver(reg *metrics.Registry, trc *opTracer, stage string) *stageObserver {
	return &stageObserver{
		meter: reg.Meter(stage),
		lat:   reg.Histogram(stage + "_latency_ns"),
		qwait: reg.Histogram(stage + "_qwait_ns"),
		trc:   trc,
		stage: stage,
	}
}

// dequeued records how long c waited in the stage's inbound queue (and
// a "queue-wait" trace span on the consuming worker's track).
func (so *stageObserver) dequeued(c Chunk, worker int) {
	if c.enqAt.IsZero() {
		return
	}
	so.qwait.ObserveDuration(time.Since(c.enqAt))
	so.trc.span("queue-wait", worker, c.enqAt, len(c.Data), c.Seq)
}

// done records one processed chunk: service latency since t0, meter
// bytes, and the stage's trace span.
func (so *stageObserver) done(worker int, t0 time.Time, bytes int, seq uint64) {
	so.lat.ObserveDuration(time.Since(t0))
	so.meter.Add(bytes)
	so.trc.span(so.stage, worker, t0, bytes, seq)
}

// doneFlow is done with a journey flow terminating at this span.
func (so *stageObserver) doneFlow(worker int, t0 time.Time, bytes int, seq uint64, fid uint64) {
	so.lat.ObserveDuration(time.Since(t0))
	so.meter.Add(bytes)
	so.trc.spanFlow(so.stage, worker, t0, bytes, seq, fid)
}

// watchQueue registers live depth, high-water and cumulative blocked-time
// gauges for q, polled at scrape/sample time. Producer (put) and
// consumer (get) blocked time are exposed separately — put-blocked is
// backpressure from a slow consumer, get-blocked is starvation by a slow
// producer, and bottleneck attribution (internal/obs) needs the two
// apart — with the combined series kept for existing dashboards.
func watchQueue[T any](reg *metrics.Registry, name string, q *queue.Queue[T]) {
	reg.RegisterGauge(name+"_depth", func() float64 { return float64(q.Len()) })
	reg.RegisterGauge(name+"_highwater", func() float64 { return float64(q.Stats().MaxDepth) })
	reg.RegisterGauge(name+"_blocked_secs", func() float64 {
		st := q.Stats()
		return (st.PutBlocked + st.GetBlocked).Seconds()
	})
	reg.RegisterGauge(name+"_put_blocked_secs", func() float64 {
		return q.Stats().PutBlocked.Seconds()
	})
	reg.RegisterGauge(name+"_get_blocked_secs", func() float64 {
		return q.Stats().GetBlocked.Seconds()
	})
}

// Real-execution streaming: the same NodeConfig that drives the
// simulated experiments runs here on goroutine pools over TCP. A sender
// node compresses chunks and pushes them; a receiver node pulls,
// decompresses and delivers to a sink (Figure 2's {C}/{S}/{R}/{D}).

// Chunk is one unit of streaming data in flight.
type Chunk struct {
	Seq    uint64
	Stream uint32 // stream id; a gateway serves several senders (Fig 13)
	Data   []byte // current payload: raw or LZ4 block
	RawLen int    // uncompressed length of the original chunk
	Packed bool   // Data is an LZ4 block
	// Peer, set on the receive path, is the advertised label (or remote
	// address) of the connection the chunk arrived on — which relay or
	// sender delivered it. Churn drills use it to attribute deliveries
	// across failovers; empty on the send path.
	Peer string

	// enqAt is stamped just before the chunk enters an inter-stage
	// queue; the consuming stage turns it into a queue-wait observation.
	enqAt time.Time

	// wire is the sender-side trace context under construction, stamped
	// at each stage boundary and shipped as the frame's aux part. Nil
	// unless SenderOptions.WireTrace is on.
	wire *wireCtx
	// journey is the receiver-side record of a frame that arrived with
	// a trace context; closed out by the journeyRecorder at delivery.
	journey *chunkJourney

	// lease is the pooled buffer backing Data, when Data was rented
	// from a bufpool (compressed block on the sender, decompressed
	// output on the receiver). The stage that finishes with Data
	// releases it. Nil whenever Data is caller- or GC-owned.
	lease *bufpool.Buf
	// frame is the transport frame whose pooled part buffers back Data
	// on the receive path; released after the payload's last read.
	frame *msgq.Frame
}

// message header:
//
//	seq uint64 | rawLen uint32 | stream uint32 | flags uint8 | crc uint32
//
// crc is a CRC-32C (Castagnoli) over the payload part as it travels the
// wire (the LZ4 block when packed). The WAN path the paper streams over
// flips bits for real; TCP's 16-bit checksum misses enough of them at
// 100 Gbps rates that a payload CRC is the difference between a
// quarantined chunk and a silently corrupt projection.
const (
	headerLen  = 21
	flagPacked = 1
)

// crcTable is shared by senders and receivers (CRC-32C, hardware
// accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeHeaderInto fills a caller-owned (typically stack) header array
// — the send worker's per-frame path, which must not allocate.
func encodeHeaderInto(h *[headerLen]byte, c Chunk, crc uint32) {
	binary.LittleEndian.PutUint64(h[0:], c.Seq)
	binary.LittleEndian.PutUint32(h[8:], uint32(c.RawLen))
	binary.LittleEndian.PutUint32(h[12:], c.Stream)
	h[16] = 0
	if c.Packed {
		h[16] = flagPacked
	}
	binary.LittleEndian.PutUint32(h[17:], crc)
}

func encodeHeader(c Chunk, crc uint32) []byte {
	var h [headerLen]byte
	encodeHeaderInto(&h, c, crc)
	return h[:]
}

// decodeFrame checks a received message's shape, header and payload
// CRC, returning the chunk with Data set. credited reports whether the
// frame carried a decodable header — the receiver's dispatch takes
// stream credit for exactly those frames.
func decodeFrame(msg msgq.Message) (c Chunk, credited bool, err error) {
	if len(msg) != 2 {
		return Chunk{}, false, fmt.Errorf("pipeline: message with %d parts", len(msg))
	}
	c, wantCRC, err := decodeHeader(msg[0])
	if err != nil {
		return Chunk{}, false, err
	}
	if sum := crc32.Checksum(msg[1], crcTable); sum != wantCRC {
		return c, true, fmt.Errorf("pipeline: chunk %d payload CRC %08x, want %08x", c.Seq, sum, wantCRC)
	}
	c.Data = msg[1]
	return c, true, nil
}

func decodeHeader(h []byte) (Chunk, uint32, error) {
	if len(h) != headerLen {
		return Chunk{}, 0, fmt.Errorf("pipeline: header of %d bytes", len(h))
	}
	return Chunk{
		Seq:    binary.LittleEndian.Uint64(h[0:]),
		RawLen: int(binary.LittleEndian.Uint32(h[8:])),
		Stream: binary.LittleEndian.Uint32(h[12:]),
		Packed: h[16] == flagPacked,
	}, binary.LittleEndian.Uint32(h[17:]), nil
}

// pinFor maps a runtime placement onto host CPUs, carrying each
// worker's NUMA domain along so buffer rentals stay local to the pin.
func pinFor(topo numa.HostTopology, p runtime.Placement) (PinSpec, error) {
	switch p.Mode {
	case runtime.Pinned:
		sets := make([][]int, 0, len(p.Sockets))
		for _, s := range p.Sockets {
			n, ok := topo.Node(s)
			if !ok {
				return PinSpec{}, fmt.Errorf("pipeline: no NUMA node %d on this host", s)
			}
			sets = append(sets, n.CPUs)
		}
		return PinSpec{CPUSets: sets, Domains: append([]int(nil), p.Sockets...)}, nil
	case runtime.PinnedCores:
		pin := CorePin(p.Cores)
		for _, c := range p.Cores {
			d := topo.NodeOfCPU(c)
			if d < 0 {
				d = 0 // unknown core: fall back to the first shard
			}
			pin.Domains = append(pin.Domains, d)
		}
		return pin, nil
	case runtime.Split:
		return SplitPin(topo), nil
	case runtime.OSDefault:
		return Unpinned, nil
	default:
		return PinSpec{}, fmt.Errorf("pipeline: unknown placement mode %q", p.Mode)
	}
}

// Codec selects the compression algorithm for the sender's compress
// stage.
type Codec int

// Available codecs: CodecFast is LZ4 level 1 (the paper's choice,
// line-rate); CodecHC trades compression speed for ratio — worth it
// when the network, not the CPU, is the bottleneck (§1's effective-
// bandwidth arithmetic).
const (
	CodecFast Codec = iota
	CodecHC
)

// SenderOptions configures RunSender.
type SenderOptions struct {
	Cfg  runtime.NodeConfig
	Topo numa.HostTopology
	// Peers are receiver PULL addresses to connect to.
	Peers []string
	// Source yields successive raw chunks; nil ends the stream.
	Source func() []byte
	// StreamID tags every chunk so a gateway serving several senders
	// can separate them (Figure 13's four concurrent streams).
	StreamID uint32
	// Codec selects the compression algorithm (default CodecFast).
	Codec Codec
	// MinPeers, when positive, delays streaming until that many peer
	// connections are live, so chunks distribute across all receivers
	// instead of piling onto whichever dialed first.
	MinPeers int
	// HCDepth is the CodecHC chain-search depth (0 = default).
	HCDepth int
	// Metrics, when non-nil, receives "compress" and "send" meters plus
	// the msgq failure counters (reconnects, resends, timeouts).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records per-worker operation spans.
	Tracer *trace.Tracer
	// QueueCap bounds the inter-stage queues (default 16).
	QueueCap int
	// SendHorizon bounds how long a send worker blocks while every
	// peer is dead before the sender fails (0 = block until the stream
	// is torn down — the legacy behaviour).
	SendHorizon time.Duration
	// WriteTimeout is the per-message write deadline (0 = none); a
	// stalled peer costs one timeout instead of a wedged worker.
	WriteTimeout time.Duration
	// Dial overrides the transport dialer — the hook fault plans
	// (faults.Injector.Dialer) attach to.
	Dial func(addr string) (net.Conn, error)
	// WireTrace ships a per-chunk trace context (identity + stage
	// timestamps) as each frame's auxiliary part, letting a v2 receiver
	// stitch cross-host chunk journeys. Off, the hot path is unchanged:
	// no stamping, no aux framing.
	WireTrace bool
	// BufPool overrides the buffer pool the compress workers rent their
	// scratch from; nil uses the process-wide bufpool.Default(). Tests
	// pass a private pool so they can assert its leak accounting.
	BufPool *bufpool.Pool
	// DisableBufPool turns pooling off (the -bufpool=off escape hatch):
	// every stage allocates per chunk as before PR 5, the A/B baseline
	// for allocator-pressure measurements.
	DisableBufPool bool
	// Controls, when non-nil, receives this run's stage pools so the
	// adaptive placement controller can Grow/Shrink/re-pin them live.
	// Nil costs nothing on the chunk path.
	Controls *Controls
}

// effectivePool resolves the pool an options struct asks for: nil when
// disabled (bufpool's nil-receiver mode keeps every call site uniform),
// the explicit pool when set, the process default otherwise.
func effectivePool(explicit *bufpool.Pool, disabled bool) *bufpool.Pool {
	if disabled {
		return nil
	}
	if explicit != nil {
		return explicit
	}
	return bufpool.Default()
}

// RunSender streams chunks from Source through the configured
// compression and send pools until Source is exhausted, then returns.
func RunSender(opts SenderOptions) error {
	if err := opts.Cfg.Validate(len(opts.Topo.Nodes)); err != nil {
		return err
	}
	if opts.Cfg.Role != runtime.Sender {
		return fmt.Errorf("pipeline: RunSender with role %q", opts.Cfg.Role)
	}
	if len(opts.Peers) == 0 {
		return fmt.Errorf("pipeline: sender has no peers")
	}
	if opts.Source == nil {
		return fmt.Errorf("pipeline: sender has no source")
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 16
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	pool := effectivePool(opts.BufPool, opts.DisableBufPool)
	pool.Register(opts.Metrics)

	nSend := opts.Cfg.Count(runtime.Send)
	if nSend < 1 {
		return fmt.Errorf("pipeline: sender config has no send threads")
	}
	compGroup, hasComp := opts.Cfg.Group(runtime.Compress)

	push := msgq.NewPush()
	push.SendHorizon = opts.SendHorizon
	push.WriteTimeout = opts.WriteTimeout
	push.Dial = opts.Dial
	push.Counters = opts.Metrics
	push.Label = opts.Cfg.Node
	// Failover accounting: each downstream (relay or gateway) connection
	// lost mid-stream is a failover the transport rides out by retrying
	// on survivors and redialing. Counted here on the sender because the
	// sender is the one whose chunks get diverted.
	failoverCtr := opts.Metrics.Counter(CtrRelayFailovers)
	failoverStreamCtr := opts.Metrics.StreamCounter("relay_failovers", opts.StreamID)
	push.OnPeerDown = func(string) {
		failoverCtr.Inc()
		failoverStreamCtr.Inc()
	}
	defer push.Close()
	for _, peer := range opts.Peers {
		push.Connect(peer)
	}
	if opts.MinPeers > 0 {
		if opts.MinPeers > len(opts.Peers) {
			return fmt.Errorf("pipeline: MinPeers %d exceeds peer count %d", opts.MinPeers, len(opts.Peers))
		}
		if err := push.WaitLive(opts.MinPeers); err != nil {
			return err
		}
	}

	tracer := newOpTracer(opts.Tracer, opts.Cfg.Node)
	sendQ := queue.New[Chunk](opts.QueueCap)
	watchQueue(opts.Metrics, "sendq", sendQ)
	var compQ *queue.Queue[Chunk]

	// Source feeder.
	feedTo := sendQ
	if hasComp && compGroup.Count > 0 {
		compQ = queue.New[Chunk](opts.QueueCap)
		watchQueue(opts.Metrics, "compq", compQ)
		feedTo = compQ
	}
	go func() {
		defer feedTo.Close()
		var seq uint64
		for {
			raw := opts.Source()
			if raw == nil {
				return
			}
			c := Chunk{Seq: seq, Stream: opts.StreamID, Data: raw, RawLen: len(raw)}
			if opts.WireTrace {
				c.wire = &wireCtx{Version: wireCtxVersion, Seq: c.Seq, Stream: c.Stream}
				if feedTo == sendQ {
					// No compress stage: the feeder's Put is the
					// send-queue entry.
					c.wire.Enqueue = trace.NowNanos()
				}
			}
			seq++
			c.enqAt = time.Now()
			if err := feedTo.Put(c); err != nil {
				return
			}
		}
	}()

	var pools []*Pool

	if compQ != nil {
		pin, err := pinFor(opts.Topo, compGroup.Placement)
		if err != nil {
			return err
		}
		obs := newStageObserver(opts.Metrics, tracer, "compress")
		comp := StartPool(PoolConfig{
			Name: "compress", Workers: compGroup.Count, Pin: pin, Topo: opts.Topo,
			// The last compress worker out — grown, retired or drained —
			// closes the send queue.
			OnDrained: func() { sendQ.Close() },
		}, func(w *Worker) error {
			// Pooled mode rents a CompressBound-sized buffer per chunk
			// (local to this worker's pinned domain) and ships the
			// compressed block without a packed copy; the send worker
			// releases the lease after the frame leaves. The escape
			// hatch keeps the legacy exact-size copy, but out of a
			// grow-once worker-local scratch instead of per-chunk
			// make([]byte, bound) regrows.
			worker, dom := w.ID(), w.Domain()
			var scratch growBuf
			for {
				if w.Retiring() {
					return nil
				}
				c, err := compQ.Get()
				if err == queue.ErrClosed {
					return nil
				}
				if err != nil {
					return err
				}
				obs.dequeued(c, worker)
				t0 := time.Now()
				if c.wire != nil {
					c.wire.CompressStart = trace.NowNanos()
				}
				bound := lz4.CompressBound(len(c.Data))
				var buf []byte
				var lease *bufpool.Buf
				if pool != nil {
					lease = pool.Get(dom, bound)
					buf = lease.Bytes()
				} else {
					buf = scratch.ensure(bound)
				}
				var n int
				switch opts.Codec {
				case CodecHC:
					n, err = lz4.CompressBlockHC(c.Data, buf, opts.HCDepth)
				default:
					n, err = lz4.CompressBlock(c.Data, buf)
				}
				if err != nil {
					lease.Release()
					return fmt.Errorf("compressing chunk %d: %w", c.Seq, err)
				}
				switch {
				case n >= len(c.Data):
					// Incompressible: the raw chunk ships as-is.
					lease.Release()
				case lease != nil:
					lease.SetLen(n)
					c.Data = lease.Bytes()
					c.lease = lease // released by the send worker
					c.Packed = true
				default:
					packed := make([]byte, n)
					copy(packed, buf[:n])
					c.Data = packed
					c.Packed = true
				}
				obs.done(worker, t0, c.RawLen, c.Seq)
				if c.wire != nil {
					now := trace.NowNanos()
					c.wire.CompressEnd = now
					c.wire.Enqueue = now
				}
				c.enqAt = time.Now()
				if err := sendQ.Put(c); err != nil {
					c.lease.Release() // send stage gone; don't strand it
					return nil        // receiver side gone; drain out
				}
			}
		})
		pools = append(pools, comp)
		opts.Controls.attach("compress", comp, opts.Metrics)
	}

	{
		g, _ := opts.Cfg.Group(runtime.Send)
		pin, err := pinFor(opts.Topo, g.Placement)
		if err != nil {
			return err
		}
		obs := newStageObserver(opts.Metrics, tracer, "send")
		send := StartPool(PoolConfig{
			Name: "send", Workers: nSend, Pin: pin, Topo: opts.Topo,
			// All send workers are gone. On a failure exit (dead peers
			// past the horizon) compress workers may be blocked in
			// sendQ.Put, and RunSender waits on the compress pool before
			// it closes anything — close the queue here so the abort
			// drains instead of wedging. Idempotent on the normal path,
			// where sendQ is already closed.
			OnDrained: func() { sendQ.Close() },
		}, func(w *Worker) error {
			// Per-worker frame scratch: the 21-byte header lives on this
			// frame (not a per-chunk make), and the two-part message
			// shell is reused — with the vectored writer downstream the
			// steady-state send path allocates nothing per chunk.
			worker := w.ID()
			var hdr [headerLen]byte
			msg := msgq.Message{nil, nil}
			for {
				if w.Retiring() {
					return nil
				}
				c, err := sendQ.Get()
				if err == queue.ErrClosed {
					return nil
				}
				if err != nil {
					return err
				}
				obs.dequeued(c, worker)
				t0 := time.Now()
				if c.wire != nil {
					c.wire.Dequeue = trace.NowNanos()
				}
				sum := crc32.Checksum(c.Data, crcTable)
				encodeHeaderInto(&hdr, c, sum)
				msg[0], msg[1] = hdr[:], c.Data
				var sendErr error
				if c.wire != nil {
					c.wire.Send = trace.NowNanos()
					sendErr = push.SendTagged(msg, encodeWireCtx(*c.wire))
				} else {
					sendErr = push.Send(msg)
				}
				// The compressed block was copied to the wire (or the
				// send failed terminally); either way its lease is done.
				c.lease.Release()
				msg[1] = nil
				if sendErr != nil {
					return fmt.Errorf("sending chunk %d: %w", c.Seq, sendErr)
				}
				obs.done(worker, t0, len(c.Data), c.Seq)
			}
		})
		pools = append(pools, send)
		opts.Controls.attach("send", send, opts.Metrics)
	}

	var firstErr error
	for _, p := range pools {
		if err := p.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Unblock a feeder goroutine still waiting on a full queue after a
	// worker failure.
	feedTo.Close()
	return firstErr
}

// ReceiverOptions configures RunReceiver.
type ReceiverOptions struct {
	Cfg  runtime.NodeConfig
	Topo numa.HostTopology
	// Bind is the PULL listen address ("127.0.0.1:0" for tests).
	Bind string
	// Expect is the number of chunks after which the receiver stops.
	// With Expect <= 0 the receiver serves until Stop is closed.
	Expect int
	// Stop, when non-nil, ends an open-ended receiver: intake closes,
	// in-flight chunks drain, RunReceiver returns.
	Stop <-chan struct{}
	// Sink receives each delivered (decompressed) chunk; nil discards.
	// Calls for one stream are serialized on that stream's delivery
	// lane; different streams' calls run concurrently. With Expect set,
	// the Sink is called at most Expect times.
	Sink func(Chunk) error
	// Metrics, when non-nil, receives "receive" and "decompress"
	// meters plus the failure counters (CtrQuarantined, CtrSeqGaps,
	// CtrSeqLate).
	Metrics *metrics.Registry
	// Tracer, when non-nil, records per-worker operation spans.
	Tracer *trace.Tracer
	// QueueCap bounds the inter-stage queues (default 16).
	QueueCap int
	// Ready, when non-nil, receives the bound address once listening.
	Ready chan<- string
	// FailHard restores the legacy all-or-nothing behaviour: any
	// malformed message or corrupt chunk aborts the whole node. The
	// default is quarantine-and-count — a corrupt chunk is dropped,
	// counted (CtrQuarantined) and the stream keeps flowing, because on
	// a real WAN path one flipped bit must not kill a 200 Gbps stream.
	FailHard bool
	// MaxBadChunks aborts the receiver once more than this many chunks
	// have been quarantined (0 = no limit). It bounds how long a
	// systematically corrupting peer can burn receiver cycles.
	MaxBadChunks int
	// Listener, when non-nil, overrides Bind with an existing listener
	// (fault-wrapped listeners; the receiver takes ownership).
	Listener net.Listener
	// ExactlyOnce turns on the exactly-once accounting ledger: each
	// (stream, seq) pair is delivered to the Sink at most once, repeats
	// are counted (CtrDupDrops) and dropped. Off, the hot path is
	// untouched — at-least-once, as before.
	ExactlyOnce bool
	// Ledger, when non-nil (implies ExactlyOnce), is the accounting
	// ledger to use — pass one in to keep dedup state across receiver
	// passes and to inspect Holes()/Delivered() after the run. Nil with
	// ExactlyOnce set builds a private ledger over Metrics.
	Ledger *Ledger
	// BufPool overrides the buffer pool backing frame receives and
	// decompression output; nil uses bufpool.Default().
	//
	// With pooling on, the Data slice a Sink receives is pooled memory
	// that is recycled as soon as the Sink returns — a Sink that wants
	// to keep the bytes must copy them during the call (every Sink in
	// this repo already does).
	BufPool *bufpool.Pool
	// DisableBufPool turns pooling off (the -bufpool=off escape
	// hatch); chunk buffers are then GC-owned and a Sink may retain
	// Data freely, as before PR 5.
	DisableBufPool bool

	// Shards is the number of receive shards (see gateway.go): per-shard
	// receive queues keyed by stream hash, drained by every receive
	// worker. 0 means one shard; > 0 is an explicit shard count;
	// ShardsAuto aligns it with the host's NUMA domains.
	Shards int
	// MaxStreams is the admission limit: at most this many distinct
	// streams are ever admitted; later streams are rejected at dispatch
	// and counted (CtrStreamsRejected, CtrChunksRejected). 0 means
	// unlimited.
	MaxStreams int
	// StreamCredit is each stream's in-flight chunk window past
	// dispatch (default DefaultStreamCredit). A stream at its limit
	// blocks only its own connection — per-stream backpressure.
	StreamCredit int
	// Controls, when non-nil, receives this run's stage pools so the
	// adaptive placement controller can Grow/Shrink/re-pin them live.
	Controls *Controls
}

// Receiver-side failure counters recorded in ReceiverOptions.Metrics.
const (
	// CtrQuarantined counts chunks dropped instead of delivered:
	// malformed message shape, undecodable header, payload CRC
	// mismatch, or decompression failure.
	CtrQuarantined = "chunks_quarantined"
	// CtrSeqGaps counts sequence numbers a stream never delivered —
	// chunks lost or quarantined upstream of delivery. A missing
	// sequence number counts once the stream has moved 1024 past it or
	// the receiver stops, so a reordered chunk is late, not a gap.
	CtrSeqGaps = "seq_gaps"
	// CtrSeqLate counts chunks that arrived with a sequence number
	// below the stream's high-water mark (reordered or duplicated).
	CtrSeqLate = "seq_late"
	// CtrRelayFailovers counts downstream connections a sender lost
	// mid-stream (relay or gateway deaths the transport failed over
	// from). Recorded in SenderOptions.Metrics, with a per-stream
	// variant "relay_failovers_stream_<id>".
	CtrRelayFailovers = "relay_failovers"
)

// RunReceiver accepts chunks until Expect have been accounted for (or
// Stop closes), then returns. It is the gateway of Figure 13: the
// shard, admission, credit and delivery-lane mechanisms are described
// in gateway.go.
func RunReceiver(opts ReceiverOptions) error {
	if err := opts.Cfg.Validate(len(opts.Topo.Nodes)); err != nil {
		return err
	}
	if opts.Cfg.Role != runtime.Receiver {
		return fmt.Errorf("pipeline: RunReceiver with role %q", opts.Cfg.Role)
	}
	if opts.Expect <= 0 && opts.Stop == nil {
		return fmt.Errorf("pipeline: receiver needs a positive Expect count or a Stop channel")
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = 16
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	shards := resolveShards(opts)
	credit := opts.StreamCredit
	if credit <= 0 {
		credit = DefaultStreamCredit
	}
	pool := effectivePool(opts.BufPool, opts.DisableBufPool)
	pool.Register(opts.Metrics)

	nRecv := opts.Cfg.Count(runtime.Receive)
	if nRecv < 1 {
		return fmt.Errorf("pipeline: receiver config has no receive threads")
	}
	decGroup, hasDec := opts.Cfg.Group(runtime.Decompress)
	recvGroup, _ := opts.Cfg.Group(runtime.Receive)
	recvPin, err := pinFor(opts.Topo, recvGroup.Placement)
	if err != nil {
		return err
	}

	var pull *msgq.Pull
	if opts.Listener != nil {
		pull = msgq.NewPullFromListener(opts.Listener)
	} else {
		pull, err = msgq.NewPull(opts.Bind)
		if err != nil {
			return err
		}
	}
	defer pull.Close()
	pull.SetLabel(opts.Cfg.Node)
	pull.SetCounters(opts.Metrics)
	if pool != nil {
		// Frame buffers are rented on behalf of the receive workers'
		// domain: the read loop does the first touch, but the pages are
		// recycled within the domain that consumes them.
		pull.SetBufferPool(pool, recvPin.DomainFor(0))
	}

	adm := NewAdmission(opts.Metrics, opts.MaxStreams)
	gate := newCreditGate(opts.Metrics, credit)
	// Dispatch runs on each connection's read goroutine: peek the
	// header, admit, take credit, route by stream hash. A frame that
	// cannot carry a header (wrong shape) passes through uncredited and
	// is quarantined by a receive worker — the credited predicate here
	// and in the worker must match exactly: len(Msg) == 2 and a
	// decodable header.
	pull.SetDispatch(shards, shardQueueCap, func(d *msgq.Delivery) (int, bool) {
		if len(d.Msg) != 2 {
			return 0, true
		}
		c, _, err := decodeHeader(d.Msg[0])
		if err != nil {
			return 0, true
		}
		if !adm.Admit(c.Stream) {
			return 0, false
		}
		if gate.acquire(c.Stream) != nil {
			return 0, false // tearing down
		}
		return ShardHash(c.Stream, shards), true
	})
	for i := 0; i < shards; i++ {
		i := i
		opts.Metrics.RegisterGauge(fmt.Sprintf("shard_%d_depth", i),
			func() float64 { return float64(pull.ShardDepth(i)) })
	}
	if opts.Ready != nil {
		opts.Ready <- pull.Addr().String()
	}

	tracer := newOpTracer(opts.Tracer, opts.Cfg.Node)
	journeys := newJourneyRecorder(opts.Metrics, tracer)
	var decQ *queue.Queue[Chunk]
	if hasDec && decGroup.Count > 0 {
		decQ = queue.New[Chunk](opts.QueueCap)
		watchQueue(opts.Metrics, "decq", decQ)
	}

	quarantinedCtr := opts.Metrics.Counter(CtrQuarantined)
	gapCtr := opts.Metrics.Counter(CtrSeqGaps)
	lateCtr := opts.Metrics.Counter(CtrSeqLate)
	ledger := opts.Ledger
	if ledger == nil && opts.ExactlyOnce {
		ledger = NewLedger(opts.Metrics, 0)
	}

	// Accounting: atomics, not a shared mutex — delivery is distributed
	// across per-stream lanes and a thousand of them must not serialize.
	// With Expect set, every delivery and every quarantine claims one of
	// Expect's slots; a delivery claims its slot before the Sink runs, so
	// concurrent lanes can never call the Sink more than Expect times,
	// and a quarantined chunk cannot leave the node waiting for a
	// delivery that will never happen.
	var claimed, quarantined atomic.Int64
	done := make(chan struct{})
	var doneOnce sync.Once
	markDone := func() { doneOnce.Do(func() { close(done) }) }
	expectMet := func() bool { return opts.Expect > 0 && claimed.Load() >= int64(opts.Expect) }
	claim := func() bool {
		if opts.Expect <= 0 {
			return true
		}
		for {
			n := claimed.Load()
			if n >= int64(opts.Expect) {
				return false
			}
			if claimed.CompareAndSwap(n, n+1) {
				if n+1 == int64(opts.Expect) {
					markDone()
				}
				return true
			}
		}
	}
	var laneErrOnce sync.Once
	var laneErr error

	// A failing worker must stop the intake too, or healthy workers
	// would wait forever on a stream that can no longer complete. It must
	// also close decQ: pull.Close only wakes workers blocked in Recv, so
	// without this a receive worker parked in decQ.Put on a full queue
	// would wedge forever when the decompress stage aborts (FailHard,
	// MaxBadChunks, a Sink error) — exactly the corrupt-peer scenario the
	// thresholds are meant to bound. The clean path never comes through
	// here, so drain-on-success is unaffected: there decQ closes only
	// after the last receive worker exits.
	failStop := func(err error) error {
		if err != nil {
			markDone()
			if decQ != nil {
				decQ.Close()
			}
		}
		return err
	}
	// quarantine disposes of an undeliverable chunk; credited says
	// whether dispatch charged the stream's credit for it (decodable
	// header), which must be given back on every disposal path. The
	// returned error is nil in quarantine mode (count and continue) and
	// the original cause under FailHard or past the MaxBadChunks
	// threshold, in which case the node aborts.
	quarantine := func(cause error, credited bool, stream uint32) error {
		if credited {
			gate.release(stream)
		}
		if opts.FailHard {
			return failStop(cause)
		}
		quarantinedCtr.Inc()
		bad := quarantined.Add(1)
		if opts.MaxBadChunks > 0 && bad > int64(opts.MaxBadChunks) {
			return failStop(fmt.Errorf("pipeline: %d chunks quarantined exceeds MaxBadChunks %d; last cause: %w",
				bad, opts.MaxBadChunks, cause))
		}
		if opts.Expect > 0 && claimed.Add(1) >= int64(opts.Expect) {
			markDone()
		}
		return nil
	}

	// The per-stream delivery lane: ledger admission, Expect slot, Sink,
	// sequence and throughput accounting, credit release — all
	// single-threaded per stream, so none of it needs a global lock.
	lanes := newLaneSet(credit, func(stream uint32, q *queue.Queue[Chunk]) {
		meter := opts.Metrics.StreamMeter("delivered", stream)
		var seqs seqWindow
		aborted := false
		for {
			c, err := q.Get()
			if err != nil {
				// Lane closed and drained: the stream's remaining holes
				// are gaps for good.
				gapCtr.Add(seqs.slide(seqs.hw))
				return
			}
			// A duplicate is counted by the ledger and dropped without
			// taking a slot; so is everything past Expect, or after a
			// Sink error (the lane keeps draining to hand credits back).
			if !aborted && !expectMet() && (ledger == nil || ledger.Admit(c.Stream, c.Seq)) && claim() {
				if opts.Sink != nil {
					if err := opts.Sink(c); err != nil {
						laneErrOnce.Do(func() { laneErr = err })
						failStop(err)
						aborted = true
					}
				}
				if !aborted {
					meter.Add(len(c.Data))
					gaps, late := seqs.deliver(c.Seq)
					if gaps > 0 {
						gapCtr.Add(gaps)
					}
					if late {
						lateCtr.Inc()
					}
					journeys.finish(c.journey, trace.NowNanos())
				}
			}
			// The Sink has returned (and copied anything it keeps): the
			// decompressed lease — and, for chunks that traveled raw, the
			// wire frame still backing Data — go home.
			c.lease.Release()
			c.frame.Release()
			gate.release(stream)
		}
	})

	if opts.Stop != nil {
		go func() {
			<-opts.Stop
			markDone()
		}()
	}

	// toLane hands a decoded, verified chunk to its delivery lane. The
	// set only refuses after closeAll, which runs after every producer
	// pool has exited — treat a refusal as a drop with full cleanup so
	// nothing leaks even if that ordering ever changes.
	toLane := func(c Chunk) {
		if !lanes.enqueue(c) {
			c.lease.Release()
			c.frame.Release()
			gate.release(c.Stream)
		}
	}

	var pools []*Pool
	{
		obs := newStageObserver(opts.Metrics, tracer, "receive")
		recv := StartPool(PoolConfig{
			Name: "receive", Workers: nRecv, Pin: recvPin, Topo: opts.Topo,
			// The last receive worker out closes the decompress queue so
			// chunks already pulled off the wire drain through.
			OnDrained: func() {
				if decQ != nil {
					decQ.Close()
				}
			},
		}, func(w *Worker) error {
			worker := w.ID()
			cur := msgq.NewShardCursor(worker)
			for {
				if w.Retiring() {
					return nil
				}
				d, err := pull.RecvSharded(cur)
				if err == msgq.ErrClosed {
					return nil
				}
				if err != nil {
					return failStop(err)
				}
				t0 := time.Now()
				// Every exit from this iteration must release d.Frame
				// exactly once (nil-safe on the unpooled path): on
				// quarantine it is released here; once it becomes
				// c.frame, the stage that finishes with the payload
				// releases it.
				c, credited, err := decodeFrame(d.Msg)
				if err != nil {
					d.Frame.Release()
					if err := quarantine(err, credited, c.Stream); err != nil {
						return err
					}
					continue
				}
				c.frame = d.Frame
				c.Peer = d.Peer
				// A wire trace context is advisory: a frame whose aux
				// part fails to decode (or describes a different chunk)
				// still delivers — only the journey is lost.
				if len(d.Aux) > 0 {
					if wc, err := decodeWireCtx(d.Aux); err != nil || wc.Seq != c.Seq || wc.Stream != c.Stream {
						journeys.badCtx.Inc()
					} else {
						c.journey = &chunkJourney{
							ctx:         wc,
							recvNanos:   d.RecvNanos,
							offset:      d.ClockOffset,
							offsetValid: d.OffsetValid,
							peer:        d.Peer,
						}
					}
				}
				if c.journey != nil {
					obs.doneFlow(worker, t0, len(c.Data), c.Seq, flowID(c.Stream, c.Seq))
				} else {
					obs.done(worker, t0, len(c.Data), c.Seq)
				}
				if decQ != nil {
					c.enqAt = time.Now()
					if err := decQ.Put(c); err != nil {
						c.frame.Release() // decompress stage gone
						gate.release(c.Stream)
						return nil
					}
					continue
				}
				toLane(c)
			}
		})
		pools = append(pools, recv)
		opts.Controls.attach("receive", recv, opts.Metrics)
	}

	if decQ != nil {
		pin, err := pinFor(opts.Topo, decGroup.Placement)
		if err != nil {
			return err
		}
		obs := newStageObserver(opts.Metrics, tracer, "decompress")
		dec := StartPool(PoolConfig{
			Name: "decompress", Workers: decGroup.Count, Pin: pin, Topo: opts.Topo,
		}, func(w *Worker) error {
			worker, dom := w.ID(), w.Domain()
			for {
				if w.Retiring() {
					return nil
				}
				c, err := decQ.Get()
				if err == queue.ErrClosed {
					return nil
				}
				if err != nil {
					return err
				}
				obs.dequeued(c, worker)
				t0 := time.Now()
				if c.Packed {
					// Decompress into a buffer rented on this worker's
					// domain — the paper's split-domain placement (Obs. 3)
					// decompresses on the far domain, and the output pages
					// should live there, not where the wire frame landed.
					// (A nil pool allocates: the -bufpool=off path.)
					lease := pool.Get(dom, c.RawLen)
					n, derr := lz4.DecompressBlock(c.Data, lease.Bytes())
					if derr == nil && n != c.RawLen {
						derr = fmt.Errorf("lz4: decompressed %d bytes, want %d", n, c.RawLen)
					}
					// The wire frame backed only the compressed block;
					// it is done the moment the block is unpacked.
					c.frame.Release()
					c.frame = nil
					if derr != nil {
						lease.Release()
						if err := quarantine(fmt.Errorf("decompressing chunk %d: %w", c.Seq, derr), true, c.Stream); err != nil {
							return err
						}
						continue
					}
					c.lease, c.Data, c.Packed = lease, lease.Bytes(), false
				}
				obs.done(worker, t0, c.RawLen, c.Seq)
				toLane(c)
			}
		})
		pools = append(pools, dec)
		opts.Controls.attach("decompress", dec, opts.Metrics)
	}

	// Teardown: the gate unblocks first (dispatchers parked on credit
	// must fail out before the transport can drain its read loops), then
	// the transport; chunks already pulled off the wire drain through
	// decompress and delivery, and lanes close only after every producer
	// has exited.
	go func() {
		<-done
		gate.close()
		pull.Close()
	}()

	var firstErr error
	for _, p := range pools {
		if err := p.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	lanes.closeAll()
	if firstErr == nil {
		firstErr = laneErr
	}
	if firstErr != nil {
		return firstErr
	}
	if opts.Expect > 0 && claimed.Load() < int64(opts.Expect) {
		return fmt.Errorf("pipeline: accounted for %d of %d expected chunks (%d delivered, %d quarantined)",
			claimed.Load(), opts.Expect, claimed.Load()-quarantined.Load(), quarantined.Load())
	}
	return nil
}
