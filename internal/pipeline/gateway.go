package pipeline

import (
	"sync"

	"numastream/internal/metrics"
	"numastream/internal/msgq"
	"numastream/internal/queue"
)

// The receiver's gateway mechanisms (RunReceiver): the thousand-stream
// scaling of the pull fan-in. Three mechanisms stand between the
// transport and the Sink, each sized so one misbehaving stream cannot
// touch the others:
//
//   - per-shard receive queues: a dispatch hook on the transport's read
//     goroutines peeks each frame's 21-byte header and routes
//     stream-hash → shard; receive workers drain the shards with a
//     backlog-weighted round-robin cursor (msgq.ShardCursor), so a deep
//     shard gets burst service but no shard starves;
//   - admission control: at most MaxStreams distinct streams are ever
//     admitted (first come wins, stickily); a stream past the limit is
//     rejected at dispatch — counted (CtrStreamsRejected /
//     CtrChunksRejected) and dropped before it can occupy a queue slot;
//   - per-stream credit: each admitted stream holds at most StreamCredit
//     chunks anywhere downstream of dispatch (shard ring, decompress
//     queue, delivery lane). The gate blocks the stream's own read
//     connection when credit runs out, which TCP turns into sender-side
//     backpressure on that stream alone — a slow or quarantined consumer
//     throttles only itself, never the shared shard queues.
//
// Delivery runs on per-stream lanes: one goroutine per admitted stream
// owns its ledger admission, Sink call and sequence accounting, so there
// is no global sink lock — a thousand-way contention point — and a Sink
// that stalls parks exactly one lane.

// Gateway counters and gauges recorded in ReceiverOptions.Metrics.
const (
	// CtrStreamsRejected counts distinct streams turned away by
	// admission control (MaxStreams).
	CtrStreamsRejected = "streams_rejected"
	// CtrChunksRejected counts chunks dropped at dispatch because their
	// stream was rejected.
	CtrChunksRejected = "chunks_rejected"
	// CtrCreditWaits counts dispatch-side credit acquisitions that had
	// to block — per-stream backpressure events.
	CtrCreditWaits = "credit_waits"
	// GaugeStreamsAdmitted is the number of distinct streams admitted so
	// far; GaugeCreditBlocked is how many streams are blocked on credit
	// right now.
	GaugeStreamsAdmitted = "streams_admitted"
	GaugeCreditBlocked   = "credit_blocked_streams"
)

// ShardsAuto asks the receiver to align the shard count with the
// host's NUMA topology: one shard per domain, minimum 2.
const ShardsAuto = -1

// DefaultStreamCredit is the receiver's per-stream in-flight chunk
// window.
const DefaultStreamCredit = 8

// shardQueueCap is the per-shard ring depth.
const shardQueueCap = 64

// ShardHash maps a stream id onto one of n shards. splitmix-style
// avalanche so adjacent stream ids spread instead of clustering.
func ShardHash(stream uint32, n int) int {
	x := uint64(stream) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Admission is sticky first-come stream admission control: the first
// MaxStreams distinct stream ids are admitted for good, every later id
// is rejected for good (and counted). Sticky both ways, so a stream's
// fate cannot flap with chunk arrival order. Safe for concurrent use;
// shared between the live gateway and the netsim drill so both run the
// same policy.
type Admission struct {
	mu       sync.Mutex
	max      int
	admitted map[uint32]struct{}
	rejected map[uint32]struct{}

	streamsRej *metrics.Counter
	chunksRej  *metrics.Counter
}

// NewAdmission builds an admission gate over reg. max <= 0 means
// unlimited (every stream admits; the counters still register).
func NewAdmission(reg *metrics.Registry, max int) *Admission {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	a := &Admission{
		max:        max,
		admitted:   make(map[uint32]struct{}),
		rejected:   make(map[uint32]struct{}),
		streamsRej: reg.Counter(CtrStreamsRejected),
		chunksRej:  reg.Counter(CtrChunksRejected),
	}
	reg.RegisterGauge(GaugeStreamsAdmitted, func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return float64(len(a.admitted))
	})
	return a
}

// Admit reports whether the stream may enter, admitting it on first
// sight while capacity lasts. A false return has already counted the
// rejected chunk (and the stream itself, once).
func (a *Admission) Admit(stream uint32) bool {
	a.mu.Lock()
	if _, ok := a.admitted[stream]; ok {
		a.mu.Unlock()
		return true
	}
	if _, ok := a.rejected[stream]; ok {
		a.mu.Unlock()
		a.chunksRej.Inc()
		return false
	}
	if a.max <= 0 || len(a.admitted) < a.max {
		a.admitted[stream] = struct{}{}
		a.mu.Unlock()
		return true
	}
	a.rejected[stream] = struct{}{}
	a.mu.Unlock()
	a.streamsRej.Inc()
	a.chunksRej.Inc()
	return false
}

// Admitted returns the number of distinct admitted streams.
func (a *Admission) Admitted() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.admitted)
}

// Rejected returns the number of distinct rejected streams.
func (a *Admission) Rejected() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.rejected)
}

// creditGate is the per-stream in-flight window. acquire blocks while
// the stream's inflight count is at the credit limit — on the stream's
// own transport read goroutine, which is what makes the backpressure
// per-stream.
type creditGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	credit   int
	inflight map[uint32]int
	blocked  int // streams currently waiting in acquire
	closed   bool
	waits    *metrics.Counter
}

func newCreditGate(reg *metrics.Registry, credit int) *creditGate {
	g := &creditGate{
		credit:   credit,
		inflight: make(map[uint32]int),
		waits:    reg.Counter(CtrCreditWaits),
	}
	g.cond = sync.NewCond(&g.mu)
	reg.RegisterGauge(GaugeCreditBlocked, func() float64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return float64(g.blocked)
	})
	return g
}

func (g *creditGate) acquire(stream uint32) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight[stream] >= g.credit && !g.closed {
		g.waits.Inc()
		g.blocked++
		for g.inflight[stream] >= g.credit && !g.closed {
			g.cond.Wait()
		}
		g.blocked--
	}
	if g.closed {
		return msgq.ErrClosed
	}
	g.inflight[stream]++
	return nil
}

func (g *creditGate) release(stream uint32) {
	g.mu.Lock()
	if n := g.inflight[stream]; n > 1 {
		g.inflight[stream] = n - 1
	} else {
		delete(g.inflight, stream)
	}
	// Waiters are keyed by stream but share one condition; Broadcast
	// and let them recheck (waiters are rare — a stream out of credit).
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *creditGate) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// laneSet owns the per-stream delivery lanes: a bounded queue plus one
// consumer goroutine per admitted stream. Lane capacity equals the
// stream's credit, so an enqueue past the gate can never block — at
// most credit chunks of a stream exist downstream of dispatch.
type laneSet struct {
	mu     sync.Mutex
	lanes  map[uint32]*queue.Queue[Chunk]
	wg     sync.WaitGroup
	cap    int
	closed bool
	run    func(stream uint32, q *queue.Queue[Chunk])
}

func newLaneSet(capacity int, run func(stream uint32, q *queue.Queue[Chunk])) *laneSet {
	return &laneSet{lanes: make(map[uint32]*queue.Queue[Chunk]), cap: capacity, run: run}
}

// enqueue routes c to its stream's lane, creating lane and consumer on
// first sight. Returns false once the set is closed (teardown).
func (ls *laneSet) enqueue(c Chunk) bool {
	ls.mu.Lock()
	if ls.closed {
		ls.mu.Unlock()
		return false
	}
	q, ok := ls.lanes[c.Stream]
	if !ok {
		q = queue.New[Chunk](ls.cap)
		ls.lanes[c.Stream] = q
		ls.wg.Add(1)
		go func(stream uint32, q *queue.Queue[Chunk]) {
			defer ls.wg.Done()
			ls.run(stream, q)
		}(c.Stream, q)
	}
	ls.mu.Unlock()
	// Outside the set lock: a Put can briefly block only if the caller
	// overran the stream's credit, which the gate prevents.
	return q.Put(c) == nil
}

// closeAll closes every lane and waits for the consumers to drain.
func (ls *laneSet) closeAll() {
	ls.mu.Lock()
	ls.closed = true
	for _, q := range ls.lanes {
		q.Close()
	}
	ls.mu.Unlock()
	ls.wg.Wait()
}

// seqSpan is how far a stream may run ahead of a missing sequence
// number before the number counts as a gap (a multiple of 64).
const seqSpan = 1024

// seqWindow is one stream's sequence accounting, owned by its delivery
// lane. Chunks of one stream reach the lane out of order whenever
// several workers decompress it, or when a reconnecting sender's new
// connection overtakes the backlog of its old one, so a jump past the
// next expected number is not yet a loss: the number counts as a gap
// only once the stream has moved seqSpan past it, or at the end.
type seqWindow struct {
	base uint64               // every seq below base was delivered or counted
	hw   uint64               // one past the highest seq delivered
	seen [seqSpan / 64]uint64 // ring bitset over [base, base+seqSpan)
}

// deliver records one delivered seq. It returns the gaps this confirms
// and whether seq arrived below the high-water mark (reordered or
// repeated).
func (w *seqWindow) deliver(seq uint64) (gaps int64, late bool) {
	late = seq < w.hw
	w.hw = max(w.hw, seq+1)
	if seq < w.base {
		return 0, late // already counted as a gap
	}
	if seq >= w.base+seqSpan {
		gaps = w.slide(seq - seqSpan + 1)
	}
	w.seen[seq%seqSpan/64] |= 1 << (seq % 64)
	for w.seen[w.base%seqSpan/64]&(1<<(w.base%64)) != 0 {
		w.seen[w.base%seqSpan/64] &^= 1 << (w.base % 64)
		w.base++
	}
	return gaps, late
}

// slide moves base up to to and returns how many seqs it passed that
// were never delivered.
func (w *seqWindow) slide(to uint64) (gaps int64) {
	for end := min(to, w.base+seqSpan); w.base < end; w.base++ {
		word, bit := &w.seen[w.base%seqSpan/64], uint64(1)<<(w.base%64)
		if *word&bit == 0 {
			gaps++
		}
		*word &^= bit
	}
	if to > w.base {
		gaps += int64(to - w.base) // beyond the window: never seen
		w.base = to
	}
	return gaps
}

// resolveShards turns the option value into a concrete shard count.
func resolveShards(opts ReceiverOptions) int {
	switch {
	case opts.Shards > 0:
		return opts.Shards
	case opts.Shards == 0:
		return 1
	}
	// ShardsAuto: NUMA-domain-aligned, minimum 2 so single-domain test
	// hosts still exercise the multi-shard path.
	n := len(opts.Topo.Nodes)
	if n < 2 {
		n = 2
	}
	return n
}
