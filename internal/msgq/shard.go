package msgq

import (
	"sync"

	"numastream/internal/queue"
)

// Sharded receive: a Pull that serves hundreds of pushing peers through
// one shared inbox serializes every stream behind a single FIFO — one
// slow consumer's backlog is everyone's backlog (head-of-line
// blocking). SetDispatch replaces the inbox with per-shard rings: a
// caller-supplied dispatch function classifies each frame on its
// connection's read goroutine (cheap header peek, admission, credit)
// and names the shard it lands on; receive workers drain the shards
// with a backlog-weighted round-robin cursor, so a deep shard gets
// burst service while shallow shards are still visited every cycle —
// no shard starves, and one full shard never blocks frames bound for
// the others.

// DispatchFunc classifies one delivery on its connection's read
// goroutine. It returns the shard the frame goes to, or ok=false to
// drop it (the read loop releases the frame; admission rejects and
// closed gates land here). It may block — that is the point: blocking
// dispatch is per-connection backpressure, stalling only the peers
// whose frames it holds. It must unblock and return ok=false once its
// external gates close, or Close will wait on it.
type DispatchFunc func(d *Delivery) (shard int, ok bool)

// wrrQuantum bounds how many frames the drain cursor takes from one
// shard before moving on: deep shards get burst locality, but every
// backlogged shard is visited at least once per cycle.
const wrrQuantum = 4

// ShardCursor is one receive worker's drain position. Give each worker
// its own cursor, offset by NewShardCursor(worker), so workers start
// their scans on different shards instead of contending for the same
// one.
type ShardCursor struct {
	shard int
	burst int
}

// NewShardCursor returns a cursor whose first scan starts at the given
// offset (typically the worker index).
func NewShardCursor(offset int) *ShardCursor {
	return &ShardCursor{shard: offset}
}

// shardRing is one shard's FIFO. Plain ring storage; all coordination
// lives in shardedInbox's shared lock and conditions.
type shardRing struct {
	buf   []Delivery
	head  int
	count int
}

func (r *shardRing) push(d Delivery) {
	r.buf[(r.head+r.count)%len(r.buf)] = d
	r.count++
}

func (r *shardRing) pop() Delivery {
	d := r.buf[r.head]
	r.buf[r.head] = Delivery{}
	r.head = (r.head + 1) % len(r.buf)
	r.count--
	return d
}

// shardedInbox is the per-shard replacement for the Pull's single
// queue. One lock and two conditions cover all shards: the contention
// profile is no worse than the single shared queue it replaces (every
// operation is O(shards) at worst and O(1) typically), and what
// sharding buys is isolation — Put blocks only when its own shard is
// full.
type shardedInbox struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	rings    []shardRing
	closed   bool
	dispatch DispatchFunc
}

func newShardedInbox(shards, capPerShard int, fn DispatchFunc) *shardedInbox {
	si := &shardedInbox{rings: make([]shardRing, shards), dispatch: fn}
	for i := range si.rings {
		si.rings[i].buf = make([]Delivery, capPerShard)
	}
	si.notEmpty = sync.NewCond(&si.mu)
	si.notFull = sync.NewCond(&si.mu)
	return si
}

// put blocks while the target shard is full (only that shard), failing
// with ErrClosed once the inbox closes.
func (si *shardedInbox) put(shard int, d Delivery) error {
	si.mu.Lock()
	defer si.mu.Unlock()
	r := &si.rings[shard]
	for r.count == len(r.buf) && !si.closed {
		si.notFull.Wait()
	}
	if si.closed {
		return ErrClosed
	}
	r.push(d)
	// Waiters may be parked for any shard; Broadcast so the one whose
	// scan covers this shard is certain to wake (a Signal could pick a
	// waiter that rechecks a different-shard view and sleeps again).
	si.notEmpty.Broadcast()
	return nil
}

// get drains the shards weighted-round-robin from cur, blocking while
// all are empty; after close it keeps draining until every shard is
// empty, then returns ErrClosed.
func (si *shardedInbox) get(cur *ShardCursor) (Delivery, error) {
	si.mu.Lock()
	defer si.mu.Unlock()
	for {
		// Stay on the current shard while its burst allowance lasts.
		if cur.burst > 0 && si.rings[cur.shard%len(si.rings)].count > 0 {
			cur.burst--
			return si.popLocked(cur.shard % len(si.rings)), nil
		}
		cur.burst = 0
		// Advance: first backlogged shard after the cursor, wrapping.
		for i := 1; i <= len(si.rings); i++ {
			s := (cur.shard + i) % len(si.rings)
			if si.rings[s].count > 0 {
				cur.shard = s
				cur.burst = wrrQuantum - 1
				return si.popLocked(s), nil
			}
		}
		if si.closed {
			return Delivery{}, ErrClosed
		}
		si.notEmpty.Wait()
	}
}

func (si *shardedInbox) popLocked(shard int) Delivery {
	r := &si.rings[shard]
	wasFull := r.count == len(r.buf)
	d := r.pop()
	if wasFull {
		// Only a full shard can have put-waiters; they wait on the
		// shared condition, so Broadcast and let them recheck.
		si.notFull.Broadcast()
	}
	return d
}

// route classifies d with the dispatch function and queues it on its
// shard, releasing its frame when dispatch drops it. It fails only once
// the inbox is closed (the frame released too).
func (si *shardedInbox) route(d Delivery) error {
	shard, ok := si.dispatch(&d)
	if !ok {
		d.Frame.Release() // rejected (admission) or gate closed
		return nil
	}
	if err := si.put(shard, d); err != nil {
		d.Frame.Release()
		return err
	}
	return nil
}

func (si *shardedInbox) depth(shard int) int {
	si.mu.Lock()
	defer si.mu.Unlock()
	if shard < 0 || shard >= len(si.rings) {
		return 0
	}
	return si.rings[shard].count
}

func (si *shardedInbox) close() {
	si.mu.Lock()
	si.closed = true
	si.notEmpty.Broadcast()
	si.notFull.Broadcast()
	si.mu.Unlock()
}

// SetDispatch switches this Pull to sharded receive: every frame is
// classified by fn on its connection's read goroutine and lands on the
// returned shard's ring (capPerShard deep; <= 0 means 64). Connections
// accepted before the call switch over too: SetDispatch closes the
// shared inbox, which sends their read loops to the shards at their
// next frame, and frames already queued there are dispatched in turn.
// From then on consume with RecvSharded; RecvDelivery reports
// ErrClosed. shards must be >= 1 or SetDispatch panics.
func (p *Pull) SetDispatch(shards, capPerShard int, fn DispatchFunc) {
	if shards < 1 {
		panic("msgq: SetDispatch needs >= 1 shard")
	}
	if fn == nil {
		panic("msgq: SetDispatch needs a dispatch function")
	}
	if capPerShard <= 0 {
		capPerShard = 64
	}
	si := newShardedInbox(shards, capPerShard, fn)
	p.mu.Lock()
	p.shards = si
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.mu.Unlock()
	p.inbox.Close()
	go func() {
		defer p.wg.Done()
		for {
			d, err := p.inbox.Get()
			if err != nil || si.route(d) != nil {
				return
			}
		}
	}()
}

// RecvSharded returns the next message from the sharded inbox, drained
// weighted-round-robin from the worker's cursor. It returns ErrClosed
// after Close once every shard has drained, and panics if SetDispatch
// was never called.
func (p *Pull) RecvSharded(cur *ShardCursor) (Delivery, error) {
	p.mu.Lock()
	si := p.shards
	p.mu.Unlock()
	if si == nil {
		panic("msgq: RecvSharded without SetDispatch")
	}
	d, err := si.get(cur)
	if err == queue.ErrClosed || err == ErrClosed {
		return Delivery{}, ErrClosed
	}
	return d, err
}

// ShardDepth returns the current occupancy of one shard's ring (0 for
// an out-of-range index or an unsharded Pull) — the per-shard depth
// gauge the pipeline exports.
func (p *Pull) ShardDepth(shard int) int {
	p.mu.Lock()
	si := p.shards
	p.mu.Unlock()
	if si == nil {
		return 0
	}
	return si.depth(shard)
}
