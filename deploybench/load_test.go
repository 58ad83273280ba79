package main

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeSession echoes the value written after a per-call delay; it can
// stall once and return a wrong result or an error on chosen calls.
type fakeSession struct {
	mu      sync.Mutex
	calls   int
	delay   time.Duration
	stall   time.Duration // extra delay of the first call
	wrongAt int           // 1-based call that returns another value
	failAt  int           // 1-based call that fails
}

func (f *fakeSession) Set(key, value string) (string, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	d := f.delay
	if n == 1 {
		d += f.stall
	}
	time.Sleep(d)
	switch n {
	case f.wrongAt:
		return value + "!", nil
	case f.failAt:
		return "", errors.New("no reply quorum")
	}
	return value, nil
}

func (f *fakeSession) Close() error { return nil }

func TestOpenLoopCountsStallAgainstLaterWrites(t *testing.T) {
	wl := workload{name: "t", valueSize: 4, keys: 10}
	s := &fakeSession{delay: time.Millisecond, stall: 300 * time.Millisecond}
	start := time.Now()
	end := start.Add(500 * time.Millisecond)
	const rate = 100.0 // one write due every 10ms
	all := openLoop([]session{s}, []*opStream{newOpStream(wl, 1, 0, 1)}, rate, start, end)
	ws := summarize(all, start, end)
	if ws.attempted != 50 {
		t.Fatalf("attempted %d writes, want the 50 due in 500ms at 100/s", ws.attempted)
	}
	// Write k is due at 10k ms. The first write stalls ~300ms, so writes
	// due during the stall are sent late, and their latency includes the
	// wait: write 10 (due at 100ms) cannot be confirmed before ~300ms.
	w := all[0][10]
	if got := w.due.Sub(start); got < 99*time.Millisecond || got > 101*time.Millisecond {
		t.Fatalf("write 10 due at %v, want 100ms", got)
	}
	if late := w.start.Sub(w.due); late < 150*time.Millisecond {
		t.Errorf("write 10 sent %v late, want >= 150ms behind the stall", late)
	}
	if lat := w.end.Sub(w.due); lat < 150*time.Millisecond {
		t.Errorf("write 10 latency %v from its due time, want >= 150ms", lat)
	}
	p, _ := tailPercentile(len(ws.lateMs))
	if late := percentile(ws.lateMs, float64(p)); late < 150 {
		t.Errorf("late p%d = %vms, want the stall to show", p, late)
	}
	// Once the backlog drains, writes go out on time again.
	last := all[0][len(all[0])-1]
	if late := last.start.Sub(last.due); late > 50*time.Millisecond {
		t.Errorf("last write sent %v late; the backlog should have drained", late)
	}
}

func TestClosedLoopWindowAccounting(t *testing.T) {
	wl := workload{name: "t", valueSize: 4, keys: 10}
	sessions := []session{&fakeSession{delay: 5 * time.Millisecond}, &fakeSession{delay: 5 * time.Millisecond}}
	streams := []*opStream{newOpStream(wl, 1, 0, 2), newOpStream(wl, 1, 1, 2)}
	from := time.Now().Add(50 * time.Millisecond)
	to := from.Add(200 * time.Millisecond)
	all := closedLoop(sessions, streams, to)
	ws := summarize(all, from, to)
	if ws.attempted == 0 || ws.failed != 0 {
		t.Fatalf("window: %+v", ws)
	}
	for i, ss := range all {
		for _, s := range ss {
			if !s.due.Equal(s.start) {
				t.Fatalf("closed loop: a write is due when sent")
			}
			var k int
			if _, err := fmt.Sscanf(s.key, "k%d", &k); err != nil || k%2 != i {
				t.Fatalf("session %d wrote key %s outside its share", i, s.key)
			}
		}
	}
	if ws.confirmed < 60 || ws.confirmed > 90 {
		t.Errorf("confirmed %d in 200ms over two 5ms sessions, want about 80", ws.confirmed)
	}
}

func TestOpStreamIsSeeded(t *testing.T) {
	wl := workload{name: "t", valueSize: 16, keys: 100}
	a, b, c := newOpStream(wl, 7, 1, 2), newOpStream(wl, 7, 1, 2), newOpStream(wl, 8, 1, 2)
	same := true
	for i := 0; i < 20; i++ {
		x, y, z := a.next(), b.next(), c.next()
		if x != y {
			t.Fatalf("same seed, different ops: %v vs %v", x, y)
		}
		if x != z {
			same = false
		}
		if len(x.value) != 16 || x.key%2 != 1 {
			t.Fatalf("op %v: want a 16-byte value on an odd key", x)
		}
	}
	if same {
		t.Error("different seeds gave the same ops")
	}
	fill := newOpStream(wl, 7, 0, 2)
	seen := map[int]bool{}
	for !fill.prefilled() {
		seen[fill.nextFill().key] = true
	}
	if len(seen) != 50 {
		t.Errorf("prefill wrote %d keys, want the session's 50", len(seen))
	}
}
