package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	fastbft "repro"
	"repro/internal/client"
	"repro/internal/sigcrypto"
	"repro/internal/smr"
	"repro/internal/types"
)

// session is one client session: fastbft's KVClient, or the traced copy of
// it built on client.New with a wrapped transport.
type session interface {
	Set(key, value string) (string, error)
	Close() error
}

// openSession dials a session over the public network client (untraced),
// or over client.New with a traced client.Transport (traced). Each session
// holds one connection per replica.
func openSession(id string, c *cluster, seed int64, rec *recorder) (session, error) {
	if rec == nil {
		keys := fastbft.GenerateTestKeys(clusterCfg.N, seed)
		if c.wl.shards == 1 {
			return fastbft.NewKVNetworkClient(id, 0, clusterCfg, keys, c.clientAddrs())
		}
		return fastbft.NewShardedKVNetworkClient(id, 0, clusterCfg, keys, c.clientAddrs(), c.wl.shards)
	}
	tcp, err := client.NewTCP(client.TCPConfig{
		N:        clusterCfg.N,
		Addrs:    c.clientAddrs(),
		Verifier: sigcrypto.NewEd25519Deterministic(clusterCfg.N, seed).Verifier(),
	})
	if err != nil {
		return nil, err
	}
	views := []client.Transport{tcp}
	if c.wl.shards > 1 {
		demux := client.NewDemux(tcp, clusterCfg.N, c.wl.shards)
		views = views[:0]
		for g := 0; g < c.wl.shards; g++ {
			views = append(views, demux.View(g))
		}
	}
	s := &tracedSession{}
	for g, v := range views {
		inner, err := client.New(client.Config{
			Cluster: clusterCfg,
			ID:      types.ClientID(id),
			Group:   uint64(g),
		}, newTracedClientTransport(v, rec, g, clusterCfg))
		if err != nil {
			_ = s.Close()
			for _, rest := range views[g:] {
				_ = rest.Close()
			}
			return nil, err
		}
		s.groups = append(s.groups, inner)
	}
	return s, nil
}

// tracedSession routes each key to its group's client session, as
// fastbft.KVClient does.
type tracedSession struct {
	groups []*client.Client
}

func (s *tracedSession) Set(key, value string) (string, error) {
	c := s.groups[smr.ShardOf(key, len(s.groups))]
	res, err := c.Execute(smr.EncodeKV(smr.KVCommand{Op: smr.OpSet, Key: key, Value: value}))
	return string(res), err
}

func (s *tracedSession) Close() error {
	var first error
	for _, c := range s.groups {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sample is one write as the load generator saw it.
type sample struct {
	key   string
	value string
	due   time.Time // when the write was due (its start, in a closed loop)
	start time.Time // when the session sent it
	end   time.Time // when it was confirmed or failed
	err   error
	wrong bool // confirmed with a result other than the value written
}

// do executes one write on s and records it. A zero due time means the
// write is due when sent (a closed loop).
func do(s session, o op, due time.Time) sample {
	sm := sample{key: keyName(o.key), value: o.value, due: due, start: time.Now()}
	if due.IsZero() {
		sm.due = sm.start
	}
	res, err := s.Set(sm.key, o.value)
	sm.end = time.Now()
	sm.err = err
	sm.wrong = err == nil && res != o.value
	return sm
}

// closedLoop runs every session back to back until stop: each sends its
// next write only once the previous one completed. It returns the samples
// per session, in order.
func closedLoop(sessions []session, streams []*opStream, stop time.Time) [][]sample {
	out := make([][]sample, len(sessions))
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				out[i] = append(out[i], do(sessions[i], streams[i].next(), time.Time{}))
			}
		}(i)
	}
	wg.Wait()
	return out
}

// prefill writes every key of every session's share once, closed loop.
func prefill(sessions []session, streams []*opStream) [][]sample {
	out := make([][]sample, len(sessions))
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !streams[i].prefilled() {
				out[i] = append(out[i], do(sessions[i], streams[i].nextFill(), time.Time{}))
			}
		}(i)
	}
	wg.Wait()
	return out
}

// openLoop issues writes on a fixed schedule: write k is due at
// start + k/rate, for every due time before end, and goes to session
// k mod len(sessions). A session still busy with an earlier write leaves
// the new one queued, so a stall makes every later write late, and each
// write's latency counts from its due time.
func openLoop(sessions []session, streams []*opStream, rate float64, start, end time.Time) [][]sample {
	total := int(math.Ceil(end.Sub(start).Seconds() * rate))
	queues := make([]chan sampleJob, len(sessions))
	for i := range queues {
		// Sized for every write the schedule can hand this session, so the
		// scheduler never blocks behind a stalled session.
		queues[i] = make(chan sampleJob, total/len(sessions)+1)
	}
	out := make([][]sample, len(sessions))
	var wg sync.WaitGroup
	for i := range sessions {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := range queues[i] {
				out[i] = append(out[i], do(sessions[i], j.op, j.due))
			}
		}(i)
	}
	for k := 0; ; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		i := k % len(sessions)
		queues[i] <- sampleJob{due: due, op: streams[i].next()}
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return out
}

type sampleJob struct {
	due time.Time
	op  op
}

// windowStats summarizes the writes of one measured window.
type windowStats struct {
	attempted int
	failed    int
	confirmed int       // confirmations that landed inside the window
	latencyMs []float64 // per attempted write; +Inf for a failed one
	lateMs    []float64 // send time minus due time
}

// summarize selects the writes due in [from, to) — in a closed loop a
// write is due when it is sent — and the confirmations that landed in it.
func summarize(all [][]sample, from, to time.Time) windowStats {
	var ws windowStats
	for _, ss := range all {
		for _, s := range ss {
			if s.err == nil && !s.end.Before(from) && s.end.Before(to) {
				ws.confirmed++
			}
			if s.due.Before(from) || !s.due.Before(to) {
				continue
			}
			ws.attempted++
			ws.lateMs = append(ws.lateMs, ms(s.start.Sub(s.due)))
			if s.err != nil {
				ws.failed++
				ws.latencyMs = append(ws.latencyMs, math.Inf(1))
			} else {
				ws.latencyMs = append(ws.latencyMs, ms(s.end.Sub(s.due)))
			}
		}
	}
	return ws
}

// firstDueAfter returns the earliest write due at or after t.
func firstDueAfter(all [][]sample, t time.Time) (sample, bool) {
	var flat []sample
	for _, ss := range all {
		for _, s := range ss {
			if !s.due.Before(t) {
				flat = append(flat, s)
			}
		}
	}
	if len(flat) == 0 {
		return sample{}, false
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].due.Before(flat[j].due) })
	return flat[0], true
}

// tail returns the nearest-rank percentile of latencies chosen by
// tailPercentile, with the percentile used.
func tail(latencies []float64) (float64, int, error) {
	p, ok := tailPercentile(len(latencies))
	if !ok {
		return 0, 0, fmt.Errorf("%d samples cannot support a tail percentile with %d beyond it", len(latencies), minBeyond)
	}
	v := percentile(append([]float64(nil), latencies...), float64(p))
	if math.IsInf(v, 1) {
		return 0, 0, fmt.Errorf("p%d latency falls on a failed write", p)
	}
	return v, p, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
