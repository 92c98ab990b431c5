package msgq

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// delivery with a payload naming its shard and ordinal, for direct
// shardedInbox tests.
func shardDelivery(shard, n int) Delivery {
	return Delivery{Msg: Message{[]byte{byte(shard)}, []byte(fmt.Sprintf("%d", n))}}
}

func TestShardedInboxIsolatesFullShard(t *testing.T) {
	si := newShardedInbox(2, 2, nil)
	// Fill shard 0 to capacity; no consumer is draining it.
	for i := 0; i < 2; i++ {
		if err := si.put(0, shardDelivery(0, i)); err != nil {
			t.Fatalf("put shard 0: %v", err)
		}
	}
	// Shard 1 must accept and serve frames while shard 0 stays full —
	// the head-of-line isolation the sharding exists for.
	done := make(chan error, 1)
	go func() { done <- si.put(1, shardDelivery(1, 0)) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("put shard 1: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("put to shard 1 blocked behind full shard 0")
	}
	cur := NewShardCursor(0)
	d, err := si.get(cur)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if d.Msg[0][0] != 1 {
		t.Fatalf("cursor at offset 0 should advance to backlogged shard 1, got shard %d", d.Msg[0][0])
	}
	if si.depth(0) != 2 {
		t.Fatalf("shard 0 depth = %d, want 2 (untouched)", si.depth(0))
	}
}

func TestShardedInboxWRRNeverStarves(t *testing.T) {
	si := newShardedInbox(2, 64, nil)
	for i := 0; i < 32; i++ {
		si.put(0, shardDelivery(0, i)) // deep shard
	}
	for i := 0; i < 4; i++ {
		si.put(1, shardDelivery(1, i)) // shallow shard
	}
	cur := NewShardCursor(1) // cursor parked on shard 1: next scan starts at 0
	run := 0
	last := -1
	for n := 0; n < 36; n++ {
		d, err := si.get(cur)
		if err != nil {
			t.Fatalf("get %d: %v", n, err)
		}
		s := int(d.Msg[0][0])
		if s == last {
			run++
		} else {
			run, last = 1, s
		}
		// While both shards are backlogged, no shard may be served more
		// than a quantum in a row.
		if si.depth(0) > 0 && si.depth(1) > 0 && run > wrrQuantum {
			t.Fatalf("shard %d served %d times in a row with the other backlogged", s, run)
		}
	}
	if si.depth(0) != 0 || si.depth(1) != 0 {
		t.Fatalf("residue after draining: %d/%d", si.depth(0), si.depth(1))
	}
}

func TestShardedInboxCloseDrains(t *testing.T) {
	si := newShardedInbox(3, 8, nil)
	for i := 0; i < 5; i++ {
		si.put(i%3, shardDelivery(i%3, i))
	}
	si.close()
	if err := si.put(0, shardDelivery(0, 9)); err != ErrClosed {
		t.Fatalf("put after close: %v, want ErrClosed", err)
	}
	cur := NewShardCursor(0)
	for i := 0; i < 5; i++ {
		if _, err := si.get(cur); err != nil {
			t.Fatalf("drain get %d: %v", i, err)
		}
	}
	if _, err := si.get(cur); err != ErrClosed {
		t.Fatalf("get after drain: %v, want ErrClosed", err)
	}
}

// TestPullShardedDispatch runs the full transport path: pushers over
// TCP, a dispatch function routing on the first payload byte (and
// dropping a marked stream), two workers draining with their own
// cursors.
func TestPullShardedDispatch(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const dropMark = 0xff
	var dropped sync.WaitGroup
	pull.SetDispatch(4, 16, func(d *Delivery) (int, bool) {
		if d.Msg[0][0] == dropMark {
			dropped.Done()
			return 0, false
		}
		return int(d.Msg[0][0]) % 4, true
	})

	push := NewPush()
	defer push.Close()
	push.Connect(pull.Addr().String())

	const msgs = 64
	dropped.Add(1)
	for i := 0; i < msgs; i++ {
		if err := push.Send(Message{[]byte{byte(i % 8)}, []byte(fmt.Sprintf("payload-%d", i))}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := push.Send(Message{[]byte{dropMark}, []byte("dropped")}); err != nil {
		t.Fatal(err)
	}
	// One more after the drop proves the read loop keeps going.
	if err := push.Send(Message{[]byte{3}, []byte("after-drop")}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	got := 0
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := NewShardCursor(w)
			for {
				d, err := pull.RecvSharded(cur)
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if d.Msg[0][0] == dropMark {
					t.Errorf("dropped frame reached a worker")
				}
				mu.Lock()
				got++
				mu.Unlock()
			}
		}(w)
	}
	dropped.Wait() // the marked frame passed through dispatch
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := got
		mu.Unlock()
		if n >= msgs+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d", n, msgs+1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pull.Close()
	wg.Wait()
	if got != msgs+1 {
		t.Fatalf("received %d messages, want %d", got, msgs+1)
	}
}

// TestPullDispatchAfterConnect: a connection accepted (and handshaken)
// before SetDispatch must not be stranded on the shared inbox, which
// RecvSharded never reads. A frame already queued there before the call
// and a frame sent after it both reach RecvSharded.
func TestPullDispatchAfterConnect(t *testing.T) {
	pull, err := NewPull("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pull.Close()
	push := NewPush()
	defer push.Close()
	push.Connect(pull.Addr().String())
	if err := push.WaitLiveTimeout(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := push.Send(Message{[]byte{0}, []byte("queued-before")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pull.inbox.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first frame never reached the shared inbox")
		}
		time.Sleep(time.Millisecond)
	}

	pull.SetDispatch(2, 4, func(d *Delivery) (int, bool) { return int(d.Msg[0][0]) % 2, true })
	if err := push.Send(Message{[]byte{1}, []byte("sent-after")}); err != nil {
		t.Fatal(err)
	}

	got := make(chan string, 2)
	go func() {
		cur := NewShardCursor(0)
		for {
			d, err := pull.RecvSharded(cur)
			if err != nil {
				return
			}
			got <- string(d.Msg[1])
		}
	}()
	seen := map[string]bool{}
	for len(seen) < 2 {
		select {
		case m := <-got:
			seen[m] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("RecvSharded got %v, want both frames", seen)
		}
	}
	if !seen["queued-before"] || !seen["sent-after"] {
		t.Fatalf("RecvSharded got %v", seen)
	}
}
