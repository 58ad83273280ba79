package main

import (
	"fmt"
	"math/rand"
	"time"
)

// workload is one set of inputs the benchmark drives the cluster with.
type workload struct {
	name      string
	valueSize int     // bytes per Set value
	keys      int     // keyspace size
	shards    int     // consensus groups per replica process
	rate      float64 // open-loop writes per second; 0 is a closed loop
	// killLeader kill -9's the view-1 leader (process 1) at the end of
	// warm-up and never restarts it.
	killLeader bool
	// prefill writes every key once during warm-up, so the state (and so
	// every checkpoint snapshot) is at full size from the first measured
	// write.
	prefill bool
	warmup  time.Duration // load before the measured window (after prefill)
}

var workloads = []workload{
	{name: "kv-small", valueSize: 16, keys: 1000, shards: 1, warmup: 2 * time.Second},
	{name: "kv-large", valueSize: 4096, keys: 256, shards: 1, prefill: true, warmup: time.Second},
	{name: "kv-sharded", valueSize: 16, keys: 1000, shards: 2, warmup: 2 * time.Second},
	{name: "leader-crash", valueSize: 16, keys: 1000, shards: 1, rate: 10, killLeader: true, warmup: 2 * time.Second},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// keyName renders key index k.
func keyName(k int) string { return fmt.Sprintf("k%05d", k) }

// op is one generated write.
type op struct {
	key   int
	value string
}

// opStream generates the writes of one session: keys from the session's
// own share of the keyspace (k mod sessions == session), so no two sessions
// ever write the same key and each key's final value is the last one its
// session had confirmed. The same (seed, session) always yields the same
// stream.
type opStream struct {
	rng  *rand.Rand
	keys []int
	fill int // next prefill position in keys
	buf  []byte
}

func newOpStream(wl workload, seed int64, session, sessions int) *opStream {
	s := &opStream{
		rng: rand.New(rand.NewSource(seed*7919 + int64(session))),
		buf: make([]byte, wl.valueSize),
	}
	for k := session; k < wl.keys; k += sessions {
		s.keys = append(s.keys, k)
	}
	return s
}

// prefilled reports whether every key of the session has been handed out
// by nextFill.
func (s *opStream) prefilled() bool { return s.fill >= len(s.keys) }

// nextFill returns the write of the next not-yet-written key.
func (s *opStream) nextFill() op {
	k := s.keys[s.fill]
	s.fill++
	return op{key: k, value: s.value()}
}

// next returns a write to a uniformly chosen key of the session.
func (s *opStream) next() op {
	return op{key: s.keys[s.rng.Intn(len(s.keys))], value: s.value()}
}

const valueAlphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+/"

func (s *opStream) value() string {
	for i := range s.buf {
		s.buf[i] = valueAlphabet[s.rng.Intn(len(valueAlphabet))]
	}
	return string(s.buf)
}
