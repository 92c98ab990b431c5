package pipeline

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numastream/internal/metrics"
)

func gaugeValue(t *testing.T, reg *metrics.Registry, name string) float64 {
	t.Helper()
	for _, g := range reg.GaugeSnapshots() {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

func TestShardHashCoversAllShards(t *testing.T) {
	const shards = 8
	hit := make([]int, shards)
	for s := uint32(0); s < 1024; s++ {
		h := ShardHash(s, shards)
		if h < 0 || h >= shards {
			t.Fatalf("ShardHash(%d, %d) = %d out of range", s, shards, h)
		}
		hit[h]++
	}
	for i, n := range hit {
		// 1024 streams over 8 shards: a fair hash puts ~128 on each; an
		// order-of-magnitude band catches clustering without flaking.
		if n < 32 || n > 512 {
			t.Fatalf("shard %d got %d of 1024 streams; hash is clustering", i, n)
		}
	}
	// Adjacent stream ids must not all collapse onto one shard.
	if a, b, c := ShardHash(0, shards), ShardHash(1, shards), ShardHash(2, shards); a == b && b == c {
		t.Fatalf("adjacent streams 0,1,2 all hash to shard %d", a)
	}
}

func TestAdmissionStickyBothWays(t *testing.T) {
	reg := metrics.NewRegistry()
	a := NewAdmission(reg, 2)
	if !a.Admit(10) || !a.Admit(20) {
		t.Fatal("first two streams must admit")
	}
	if a.Admit(30) {
		t.Fatal("third stream must reject at MaxStreams 2")
	}
	// Sticky: the same ids keep their fate regardless of order.
	for i := 0; i < 3; i++ {
		if !a.Admit(20) || !a.Admit(10) {
			t.Fatal("admitted streams must stay admitted")
		}
		if a.Admit(30) {
			t.Fatal("rejected stream must stay rejected")
		}
	}
	if got := reg.CounterValue(CtrStreamsRejected); got != 1 {
		t.Fatalf("streams_rejected = %d, want 1", got)
	}
	if got := reg.CounterValue(CtrChunksRejected); got != 4 {
		t.Fatalf("chunks_rejected = %d, want 4", got)
	}
	if a.Admitted() != 2 || a.Rejected() != 1 {
		t.Fatalf("admitted/rejected = %d/%d, want 2/1", a.Admitted(), a.Rejected())
	}
	if got := gaugeValue(t, reg, GaugeStreamsAdmitted); got != 2 {
		t.Fatalf("streams_admitted gauge = %g, want 2", got)
	}

	unlimited := NewAdmission(metrics.NewRegistry(), 0)
	for s := uint32(0); s < 100; s++ {
		if !unlimited.Admit(s) {
			t.Fatalf("unlimited admission rejected stream %d", s)
		}
	}
}

// TestShardedGatewayDeliversAllStreams is the sharded twin of
// TestGatewayServesMultipleSenders: several senders into a sharded
// exactly-once gateway, every chunk of every stream delivered intact.
func TestShardedGatewayDeliversAllStreams(t *testing.T) {
	const (
		senders     = 6
		perSender   = 20
		chunkSize   = 16 << 10
		totalChunks = senders * perSender
	)
	topo := testTopo()
	reg := metrics.NewRegistry()
	ledger := NewLedger(reg, 0)

	ready := make(chan string, 1)
	var mu sync.Mutex
	type key struct {
		stream uint32
		seq    uint64
	}
	got := make(map[key][]byte)
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- RunReceiver(ReceiverOptions{
			Cfg:         receiverCfg(2, 2),
			Topo:        topo,
			Bind:        "127.0.0.1:0",
			Expect:      totalChunks,
			Metrics:     reg,
			Ready:       ready,
			Shards:      4,
			ExactlyOnce: true,
			Ledger:      ledger,
			Sink: func(c Chunk) error {
				mu.Lock()
				defer mu.Unlock()
				k := key{c.Stream, c.Seq}
				if _, dup := got[k]; dup {
					return fmt.Errorf("duplicate chunk %v", k)
				}
				data := make([]byte, len(c.Data))
				copy(data, c.Data)
				got[k] = data
				return nil
			},
		})
	}()
	addr := <-ready

	mkChunk := func(stream uint32, i int) []byte {
		pat := []byte(fmt.Sprintf("s%d-c%04d|", stream, i))
		return bytes.Repeat(pat, chunkSize/len(pat)+1)[:chunkSize]
	}
	errs := make(chan error, senders)
	for s := uint32(0); s < senders; s++ {
		go func(stream uint32) {
			i := 0
			errs <- RunSender(SenderOptions{
				Cfg:      senderCfg(1, 1),
				Topo:     topo,
				Peers:    []string{addr},
				StreamID: stream,
				Source: func() []byte {
					if i >= perSender {
						return nil
					}
					c := mkChunk(stream, i)
					i++
					return c
				},
			})
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-errs; err != nil {
			t.Fatalf("sender: %v", err)
		}
	}
	if err := <-recvDone; err != nil {
		t.Fatalf("receiver: %v", err)
	}

	if len(got) != totalChunks {
		t.Fatalf("delivered %d chunks, want %d", len(got), totalChunks)
	}
	for s := uint32(0); s < senders; s++ {
		if d := ledger.DeliveredStream(s); d != perSender {
			t.Fatalf("stream %d: ledger has %d, want %d", s, d, perSender)
		}
		if h := ledger.Holes(s); len(h) != 0 {
			t.Fatalf("stream %d: %d holes", s, len(h))
		}
		for i := 0; i < perSender; i++ {
			if !bytes.Equal(got[key{s, uint64(i)}], mkChunk(s, i)) {
				t.Fatalf("stream %d chunk %d corrupted or misattributed", s, i)
			}
		}
	}
	if rej := reg.CounterValue(CtrStreamsRejected); rej != 0 {
		t.Fatalf("streams_rejected = %d with no admission limit", rej)
	}
	// The per-shard depth gauges must exist (drained to zero by now).
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("shard_%d_depth", i)
		found := false
		for _, g := range reg.GaugeSnapshots() {
			if g.Name == name {
				found = true
				if g.Value != 0 {
					t.Fatalf("%s = %g after drain", name, g.Value)
				}
			}
		}
		if !found {
			t.Fatalf("gauge %s not registered", name)
		}
	}
}

// TestShardedGatewayAdmissionLimit: with MaxStreams 2 and 4 pushing
// senders, exactly two streams are admitted and delivered whole; the
// others are rejected at dispatch with the reject counters accounting
// for them, and the rejected senders complete without error (their
// frames drop at the gateway, they are not punished with a stall).
func TestShardedGatewayAdmissionLimit(t *testing.T) {
	const (
		senders   = 4
		admitted  = 2
		perSender = 15
		chunkSize = 8 << 10
	)
	topo := testTopo()
	reg := metrics.NewRegistry()
	ledger := NewLedger(reg, 0)

	stop := make(chan struct{})
	ready := make(chan string, 1)
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- RunReceiver(ReceiverOptions{
			Cfg:         receiverCfg(2, 2),
			Topo:        topo,
			Bind:        "127.0.0.1:0",
			Stop:        stop,
			Metrics:     reg,
			Ready:       ready,
			Shards:      4,
			MaxStreams:  admitted,
			ExactlyOnce: true,
			Ledger:      ledger,
		})
	}()
	addr := <-ready

	payload := bytes.Repeat([]byte("admission-test-"), chunkSize/15+1)[:chunkSize]
	errs := make(chan error, senders)
	for s := uint32(0); s < senders; s++ {
		go func(stream uint32) {
			i := 0
			errs <- RunSender(SenderOptions{
				Cfg:      senderCfg(1, 1),
				Topo:     topo,
				Peers:    []string{addr},
				StreamID: stream,
				Source: func() []byte {
					if i >= perSender {
						return nil
					}
					i++
					return payload
				},
			})
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-errs; err != nil {
			t.Fatalf("sender: %v", err)
		}
	}
	// Admitted streams drain completely; which two won the race is
	// arrival order, so assert on counts, not identities. Wait for the
	// rejected chunks too — the senders return once frames hit TCP, so
	// the gateway may still be reading (and rejecting) them.
	wantRejected := int64((senders - admitted) * perSender)
	deadline := time.Now().Add(10 * time.Second)
	for ledger.Delivered() < int64(admitted*perSender) ||
		reg.CounterValue(CtrChunksRejected) < wantRejected {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d (want %d), chunks_rejected %d (want %d)",
				ledger.Delivered(), admitted*perSender,
				reg.CounterValue(CtrChunksRejected), wantRejected)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-recvDone; err != nil {
		t.Fatalf("receiver: %v", err)
	}

	if ids := ledger.Streams(); len(ids) != admitted {
		t.Fatalf("ledger saw %d streams %v, want %d", len(ids), ids, admitted)
	}
	for _, id := range ledger.Streams() {
		if d := ledger.DeliveredStream(id); d != perSender {
			t.Fatalf("admitted stream %d delivered %d, want %d", id, d, perSender)
		}
		if h := ledger.Holes(id); len(h) != 0 {
			t.Fatalf("admitted stream %d has %d holes", id, len(h))
		}
	}
	if rej := reg.CounterValue(CtrStreamsRejected); rej != senders-admitted {
		t.Fatalf("streams_rejected = %d, want %d", rej, senders-admitted)
	}
	if rej := reg.CounterValue(CtrChunksRejected); rej < int64(senders-admitted) {
		t.Fatalf("chunks_rejected = %d, want >= %d", rej, senders-admitted)
	}
}

// TestShardedGatewayFairBackpressure is the fair-backpressure property
// test: across seeded trials, one randomly chosen stream's consumer
// stalls after a random number of deliveries. Every other stream must
// still deliver its full share while the victim is stalled, and the
// victim's backlog must be absorbed by its own credit window — its
// transport connection blocks — not by the shared shard queues, which
// must drain to empty. Shards 0 is the default receiver (one shard).
func TestShardedGatewayFairBackpressure(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for _, shards := range []int{0, 1, 4} {
				shards := shards
				t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
					testFairBackpressure(t, seed, shards)
				})
			}
		})
	}
}

func testFairBackpressure(t *testing.T, seed int64, shards int) {
	const (
		streams   = 5
		perStream = 30
		chunkSize = 4 << 10
		credit    = 4
	)
	rng := rand.New(rand.NewSource(seed))
	victim := uint32(rng.Intn(streams))
	stallAfter := rng.Intn(5) // victim deliveries before the stall window opens

	topo := testTopo()
	reg := metrics.NewRegistry()
	ledger := NewLedger(reg, 0)

	unstall := make(chan struct{})
	var victimDelivered atomic.Int64
	stop := make(chan struct{})
	ready := make(chan string, 1)
	recvDone := make(chan error, 1)
	go func() {
		recvDone <- RunReceiver(ReceiverOptions{
			Cfg:          receiverCfg(2, 2),
			Topo:         topo,
			Bind:         "127.0.0.1:0",
			Stop:         stop,
			Metrics:      reg,
			Ready:        ready,
			Shards:       shards,
			StreamCredit: credit,
			ExactlyOnce:  true,
			Ledger:       ledger,
			Sink: func(c Chunk) error {
				if c.Stream == victim {
					if victimDelivered.Load() >= int64(stallAfter) {
						<-unstall // the stalled consumer
					}
					victimDelivered.Add(1)
				}
				return nil
			},
		})
	}()
	addr := <-ready

	payload := bytes.Repeat([]byte("fair-share-"), chunkSize/11+1)[:chunkSize]
	errs := make(chan error, streams)
	for s := uint32(0); s < streams; s++ {
		go func(stream uint32) {
			i := 0
			errs <- RunSender(SenderOptions{
				Cfg:      senderCfg(1, 1),
				Topo:     topo,
				Peers:    []string{addr},
				StreamID: stream,
				QueueCap: 4,
				Source: func() []byte {
					if i >= perStream {
						return nil
					}
					i++
					return payload
				},
			})
		}(s)
	}

	// Property 1: while the victim stalls, every other stream delivers
	// its complete share (its fair share of gateway service, with the
	// tolerance collapsed to "all of it" since the workload is finite).
	deadline := time.Now().Add(15 * time.Second)
	for {
		full := 0
		for s := uint32(0); s < streams; s++ {
			if s != victim && ledger.DeliveredStream(s) == perStream {
				full++
			}
		}
		if full == streams-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: healthy streams incomplete while stream %d stalls: %v",
				seed, victim, deliveredByStream(ledger, streams))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Property 2: the victim moved no further than its pre-stall
	// deliveries plus one chunk parked inside the stalled Sink call.
	if v := ledger.DeliveredStream(victim); v > int64(stallAfter)+1 {
		t.Fatalf("seed %d: stalled stream delivered %d, want <= %d", seed, v, stallAfter+1)
	}

	// Property 3: the backlog sits in the victim's credit window, not
	// the shared shard queues — shards drain empty and the victim's
	// read connection is the one blocked on credit.
	quiet := time.Now().Add(5 * time.Second)
	for {
		depths := 0.0
		for i := 0; i < max(shards, 1); i++ {
			depths += gaugeValue(t, reg, fmt.Sprintf("shard_%d_depth", i))
		}
		blocked := gaugeValue(t, reg, GaugeCreditBlocked)
		if depths == 0 && blocked == 1 {
			break
		}
		if time.Now().After(quiet) {
			t.Fatalf("seed %d: shard depths %.0f (want 0), credit-blocked %.0f (want 1): backlog leaked into shared queues", seed, depths, blocked)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if w := reg.CounterValue(CtrCreditWaits); w == 0 {
		t.Fatalf("seed %d: no credit waits recorded for a stalled stream", seed)
	}

	// Release the stall: the victim's backlog drains and the drill ends
	// exactly-once complete.
	close(unstall)
	for s := 0; s < streams; s++ {
		if err := <-errs; err != nil {
			t.Fatalf("seed %d: sender: %v", seed, err)
		}
	}
	deadline = time.Now().Add(15 * time.Second)
	for ledger.DeliveredStream(victim) < perStream {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: victim stuck at %d after unstall", seed, ledger.DeliveredStream(victim))
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	if err := <-recvDone; err != nil {
		t.Fatalf("seed %d: receiver: %v", seed, err)
	}
	for s := uint32(0); s < streams; s++ {
		if h := ledger.Holes(s); len(h) != 0 {
			t.Fatalf("seed %d: stream %d left %d holes", seed, s, len(h))
		}
	}
}

func deliveredByStream(l *Ledger, streams int) string {
	var b strings.Builder
	for s := uint32(0); s < uint32(streams); s++ {
		fmt.Fprintf(&b, "s%d=%d ", s, l.DeliveredStream(s))
	}
	return strings.TrimSpace(b.String())
}

// TestReceiverSinkCalledAtMostExpect: several streams race their lanes
// toward the Expect count with a slow Sink; the Sink must run exactly
// Expect times — a lane claims its delivery slot before the call, so
// concurrent lanes cannot all pass a "not yet Expect" check and then
// overshoot it.
func TestReceiverSinkCalledAtMostExpect(t *testing.T) {
	for _, shards := range []int{0, 2} {
		shards := shards
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			const (
				streams   = 4
				perStream = 10
				expect    = 10
			)
			topo := testTopo()
			var calls atomic.Int64
			ready := make(chan string, 1)
			recvDone := make(chan error, 1)
			go func() {
				recvDone <- RunReceiver(ReceiverOptions{
					Cfg:    receiverCfg(2, 2),
					Topo:   topo,
					Bind:   "127.0.0.1:0",
					Expect: expect,
					Ready:  ready,
					Shards: shards,
					Sink: func(c Chunk) error {
						calls.Add(1)
						time.Sleep(2 * time.Millisecond)
						return nil
					},
				})
			}()
			addr := <-ready

			payload := bytes.Repeat([]byte("expect-cap-"), 4<<10/11+1)[:4<<10]
			senders := make(chan error, streams)
			for s := uint32(0); s < streams; s++ {
				go func(stream uint32) {
					i := 0
					// The receiver stops reading after Expect chunks, so
					// the surplus sends fail within the horizon.
					senders <- RunSender(SenderOptions{
						Cfg:         senderCfg(1, 1),
						Topo:        topo,
						Peers:       []string{addr},
						StreamID:    stream,
						SendHorizon: 2 * time.Second,
						Source: func() []byte {
							if i >= perStream {
								return nil
							}
							i++
							return payload
						},
					})
				}(s)
			}
			select {
			case err := <-recvDone:
				if err != nil {
					t.Fatalf("receiver: %v", err)
				}
			case <-time.After(15 * time.Second):
				t.Fatal("receiver did not finish")
			}
			if got := calls.Load(); got != expect {
				t.Fatalf("Sink called %d times, want exactly Expect = %d", got, expect)
			}
			for s := 0; s < streams; s++ {
				<-senders // outcome irrelevant: the surplus has nowhere to go
			}
		})
	}
}

// TestSeqWindowCountsHolesNotReorders: reordered arrivals are late, not
// gaps; a sequence number never delivered counts once, either when the
// stream runs seqSpan past it or when the stream ends.
func TestSeqWindowCountsHolesNotReorders(t *testing.T) {
	var w seqWindow
	var gaps, late int64
	deliver := func(seqs ...uint64) {
		for _, s := range seqs {
			g, l := w.deliver(s)
			gaps += g
			if l {
				late++
			}
		}
	}
	// A failover's new connection overtakes the old one's backlog, and
	// seq 9 is lost for good.
	deliver(0, 1, 2, 5, 6, 7, 3, 4, 8, 10, 11, 4)
	if gaps != 0 || late != 3 {
		t.Fatalf("after reorder: gaps %d late %d, want 0 and 3", gaps, late)
	}
	if g := w.slide(w.hw); g != 1 {
		t.Fatalf("end of stream counted %d gaps, want 1 (seq 9)", g)
	}

	// A hole the stream runs seqSpan past counts without waiting for
	// the end; a chunk arriving after that is late, not a second gap.
	w, gaps, late = seqWindow{}, 0, 0
	for s := uint64(1); s <= seqSpan; s++ {
		deliver(s)
	}
	if gaps != 1 {
		t.Fatalf("hole 0 with the stream %d ahead: %d gaps, want 1", seqSpan, gaps)
	}
	deliver(0)
	if gaps != 1 || late != 1 {
		t.Fatalf("seq 0 after its gap was counted: gaps %d late %d, want 1 and 1", gaps, late)
	}

	// A stream first seen far past zero: everything below is missing,
	// counted in one step rather than one slot at a time.
	w, gaps, late = seqWindow{}, 0, 0
	deliver(1 << 40)
	if g := w.slide(w.hw); gaps+g != 1<<40 {
		t.Fatalf("first seq 1<<40 counted %d gaps, want %d", gaps+g, int64(1)<<40)
	}
}
