// Command deploybench benchmarks the replicated key-value store as it is
// deployed: n = 4 replicas (f = t = 1), each its own OS process built by
// fastbft.NewKVReplica with Ed25519 keys, a durable data directory in
// group-fsync mode, checkpoint interval 8 and a client listener, driven
// over loopback TCP by this process through the public network client.
//
//	deploybench --workload kv-small --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced (half the time each) and prints the
// per-layer breakdown. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

func main() {
	if os.Getenv(replicaEnv) != "" {
		if err := replicaMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "replica:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "deploybench:", err)
		os.Exit(1)
	}
}

// options are one benchmark invocation's settings.
type options struct {
	wl       workload
	seed     int64
	duration time.Duration
	trace    bool
	runDir   string
	exe      string // the replica child binary
	sessions int
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("deploybench", flag.ContinueOnError)
	name := fs.String("workload", "kv-small", "workload: kv-small, kv-large, kv-sharded, leader-crash, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer breakdown of a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	o := options{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		runDir:   filepath.Join(".bench_build", "runs"),
		exe:      exe,
		sessions: runtime.NumCPU(),
	}
	if *name == "all" {
		for _, wl := range workloads {
			o.wl = wl
			if err := runAndPrint(o); err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
		}
		return nil
	}
	if o.wl, err = findWorkload(*name); err != nil {
		return err
	}
	return runAndPrint(o)
}

// runAndPrint runs one workload and prints a line per metric, then the
// result JSON.
func runAndPrint(o options) error {
	m, attempted, failed, err := run(o)
	if err != nil {
		return err
	}
	for _, n := range m.names {
		fmt.Printf("%-14s %-34s %14.4f %-5s %s\n", o.wl.name, n, m.byName[n].Value, m.byName[n].Unit, m.notes[n])
	}
	for _, line := range m.info {
		fmt.Printf("%-14s not gated: %s\n", o.wl.name, line)
	}
	line, err := resultLine(attempted, failed, m)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// setupRounds is how many times an untraced run builds a cluster to time
// set-up; the last one carries the load.
const setupRounds = 5

// run executes one workload and returns its metrics: end-to-end from one
// untraced phase, or per-layer from an untraced and a traced phase of half
// the duration each.
func run(o options) (_ *metrics, _, _ int, err error) {
	base := filepath.Join(o.runDir, fmt.Sprintf("%s-%d", o.wl.name, os.Getpid()))
	defer func() {
		if err == nil {
			_ = os.RemoveAll(base) // a failed run's logs and data stay for inspection
		}
	}()
	m := newMetrics()
	if !o.trace {
		p, err := runPhase(o, o.duration, setupRounds, nil, filepath.Join(base, "run"))
		if err != nil {
			return nil, 0, 0, err
		}
		return m, p.window.attempted, p.window.failed, endToEnd(m, p)
	}
	half := o.duration / 2
	plain, err := runPhase(o, half, 1, nil, filepath.Join(base, "untraced"))
	if err != nil {
		return nil, 0, 0, err
	}
	rec := newRecorder()
	tr, err := runPhase(o, half, 1, rec, filepath.Join(base, "traced"))
	if err != nil {
		return nil, 0, 0, err
	}
	vals := layerValues(tr.traced)
	vals["trace.overhead_frac"] = 1 - throughput(tr)/throughput(plain)
	f, err := clientView(plain)
	if err != nil {
		return nil, 0, 0, err
	}
	vals["loadgen.throughput_ops_s"], vals["loadgen.latency_p50_ms"], vals["loadgen.latency_tail_ms"] = f.throughput, f.p50, f.tail
	vals["replica.cpu_ms_per_op"] = cpuPerOp(plain)
	for _, lm := range layerMetrics {
		if err := m.add(lm.name, lm.unit, vals[lm.name]); err != nil {
			return nil, 0, 0, err
		}
	}
	return m, plain.window.attempted + tr.window.attempted, plain.window.failed + tr.window.failed, nil
}

// subWindows is how many equal slices of the measured window throughput
// and median latency are taken over; they report the median slice, so a
// burst of interference shorter than a slice moves them little.
const subWindows = 5

// clientFigures are what the load generator saw in one phase's measured
// window. Throughput and latency follow the CPU the host grants, so they
// are reported but not gated (see README.md, "Noise and bounds").
type clientFigures struct {
	throughput float64 // median over the slices, writes/s
	p50        float64 // median over the slices of each slice's median, ms
	tail       float64 // tailPercentile of the whole window, ms
	tailP, n   int     // the percentile used and the sample count
}

func clientView(p *phase) (clientFigures, error) {
	var tps, p50s []float64
	for i := 0; i < subWindows; i++ {
		from := p.from.Add(p.dur * time.Duration(i) / subWindows)
		to := p.from.Add(p.dur * time.Duration(i+1) / subWindows)
		ws := summarize(p.load, from, to)
		tps = append(tps, float64(ws.confirmed)/to.Sub(from).Seconds())
		p50s = append(p50s, percentile(ws.latencyMs, 50))
	}
	f := clientFigures{throughput: median(tps), p50: median(p50s), n: len(p.window.latencyMs)}
	if math.IsInf(f.p50, 1) {
		return f, errors.New("median latency falls on a failed write")
	}
	var err error
	f.tail, f.tailP, err = tail(p.window.latencyMs)
	return f, err
}

// endToEnd records the end-to-end metrics of an untraced phase: the cost
// of a write in network and WAL bytes, the replicas' memory, and set-up
// time. The client's throughput and latency and the replicas' CPU per write
// go to m.info: they follow the speed the host grants (see README.md).
func endToEnd(m *metrics, p *phase) error {
	f, err := clientView(p)
	if err != nil {
		return err
	}
	var netBytes, walBytes, views float64
	for _, s := range p.snaps {
		netBytes += counterSum(s, "fastbft_net_bytes_out_total")
		walBytes += counterSum(s, "fastbft_wal_bytes_total")
		views += counterSum(s, "fastbft_view_changes_total")
	}
	ops := float64(p.ops)
	add := []struct {
		name, unit, note string
		v                float64
	}{
		{"net_bytes_per_op", "bytes", "(sent by the live replicas)", netBytes / ops},
		{"wal_bytes_per_op", "bytes", "(written by the live replicas)", walBytes / ops},
		{"replica_rss_mb", "MB", "(largest peak RSS)", float64(p.cluster.peakRSS()) / (1 << 20)},
		{"setup_s", "s", fmt.Sprintf("(median of %d)", len(p.setupS)), median(p.setupS)},
	}
	for _, a := range add {
		if err := m.add(a.name, a.unit, a.v); err != nil {
			return err
		}
		m.note(a.name, a.note)
	}
	m.info = append(m.info,
		fmt.Sprintf("throughput_ops_s %.2f 1/s (median of %d slices; %d confirmed in %s)", f.throughput, subWindows, p.window.confirmed, p.dur),
		fmt.Sprintf("latency_p50_ms %.3f ms (median of %d slices; n=%d)", f.p50, subWindows, f.n),
		fmt.Sprintf("latency_tail_ms %.3f ms (p%d, n=%d, %d beyond)", f.tail, f.tailP, f.n, f.n-rank(float64(f.tailP), f.n)),
		fmt.Sprintf("cpu_ms_per_op %.3f ms (replica CPU in the window, %.1fs over %d writes)", cpuPerOp(p), p.cpu.Seconds(), p.window.confirmed),
		fmt.Sprintf("slot view changes %v (live replicas)", views))
	return nil
}

func throughput(p *phase) float64 { return float64(p.window.confirmed) / p.dur.Seconds() }

// cpuPerOp is the live replicas' CPU in the measured window per write
// confirmed in it, in ms.
func cpuPerOp(p *phase) float64 { return ms(p.cpu) / float64(p.window.confirmed) }

// phase is one cluster's life: set-up, load, correctness gate, teardown.
type phase struct {
	dur     time.Duration
	setupS  []float64
	window  windowStats
	load    [][]sample    // the loop's writes, warm-up included
	from    time.Time     // start of the measured window
	cpu     time.Duration // CPU of the live replicas in the window
	ops     int
	snaps   []*obs.Snapshot // the correctness gate's read of the live replicas
	cluster *cluster
	traced  *traced // nil for an untraced phase
}

// runPhase builds a cluster setups times (keeping the last), loads it for
// warm-up plus dur, checks it, and stops it. rec, when set, makes the
// phase traced.
func runPhase(o options, dur time.Duration, setups int, rec *recorder, dir string) (*phase, error) {
	wl := o.wl
	p := &phase{dur: dur}
	var (
		c        *cluster
		sessions []session
		streams  []*opStream
		first    sample
	)
	closeSessions := func() {
		for _, s := range sessions {
			_ = s.Close() // the cluster is stopped next; nothing to flush
		}
		sessions = nil
	}
	defer func() {
		closeSessions()
		if c != nil {
			c.abort()
		}
	}()
	// setUp builds cluster r, opens its sessions and confirms one write:
	// one set-up time.
	setUp := func(r int) error {
		t0 := time.Now()
		var err error
		c, err = startCluster(o.exe, filepath.Join(dir, fmt.Sprintf("setup-%d", r)), wl, o.seed, rec != nil)
		if err != nil {
			return err
		}
		streams = make([]*opStream, o.sessions)
		for i := range streams {
			streams[i] = newOpStream(wl, o.seed, i, o.sessions)
			s, err := openSession(fmt.Sprintf("s%d", i), c, o.seed, rec)
			if err != nil {
				return err
			}
			sessions = append(sessions, s)
		}
		o1 := streams[0].next()
		if wl.prefill {
			o1 = streams[0].nextFill()
		}
		if first = do(sessions[0], o1, time.Time{}); first.err != nil || first.wrong {
			return fmt.Errorf("set-up write: err=%v wrong=%v", first.err, first.wrong)
		}
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		return nil
	}
	for r := 0; r < setups; r++ {
		if r > 0 {
			closeSessions()
			err := c.stop(10 * time.Second)
			c = nil
			if err != nil {
				return nil, err
			}
		}
		if err := setUp(r); err != nil {
			return nil, err
		}
	}

	loads := [][][]sample{{{first}}}
	if wl.prefill {
		loads = append(loads, prefill(sessions, streams))
	}
	var load [][]sample
	var killedAt time.Time
	start := time.Now()
	from, to := start.Add(wl.warmup), start.Add(wl.warmup+dur)
	cpuAt := make(chan map[int]int64, 2)
	go func(c *cluster) {
		for _, t := range []time.Time{from, to} {
			time.Sleep(time.Until(t))
			cpuAt <- c.sampleCPU()
		}
	}(c)
	if wl.rate == 0 {
		load = closedLoop(sessions, streams, to)
	} else {
		killed := make(chan error, 1)
		if wl.killLeader {
			go func() {
				time.Sleep(time.Until(from))
				killedAt = time.Now()
				killed <- c.kill(1)
			}()
		} else {
			killed <- nil
		}
		load = openLoop(sessions, streams, wl.rate, start, to)
		if err := <-killed; err != nil {
			return nil, err
		}
	}
	loads = append(loads, load)
	cpuFrom, cpuTo := <-cpuAt, <-cpuAt
	cpu, err := c.windowCPU(cpuFrom, cpuTo)
	if err != nil {
		return nil, err
	}
	p.cpu = cpu
	p.window = summarize(load, from, to)
	p.load, p.from = load, from
	closeSessions() // traced client spans are recorded on close

	e := expect(loads...)
	if err := e.checkResults(); err != nil {
		return nil, err
	}
	p.ops = e.confirmed
	snaps, err := settle(c, e, 20*time.Second)
	if err != nil {
		return nil, err
	}
	p.snaps = snaps
	if err := c.stop(10 * time.Second); err != nil {
		return nil, err
	}
	if err := checkStates(c, e); err != nil {
		return nil, err
	}
	p.cluster = c
	c = nil // stopped; nothing to abort

	if rec == nil {
		return p, nil
	}
	t := &traced{
		ops:      p.ops,
		snaps:    snaps,
		client:   rec.snapshot(),
		shards:   wl.shards,
		leaderUp: !wl.killLeader,
		window:   p.window,
	}
	for _, pr := range p.cluster.live() {
		spans, err := readSpans(filepath.Join(p.cluster.dir, fmt.Sprintf("spans-%d.jsonl", pr.id)))
		if err != nil {
			return nil, err
		}
		total, labeled, err := cpuCoverage(filepath.Join(p.cluster.dir, fmt.Sprintf("cpu-%d.pprof", pr.id)))
		if err != nil {
			return nil, err
		}
		t.liveIDs = append(t.liveIDs, pr.id)
		t.spans = append(t.spans, spans)
		t.cpuSampled += total
		t.cpuLabeled += labeled
	}
	if wl.killLeader {
		s, ok := firstDueAfter(load, killedAt)
		if !ok || s.err != nil {
			return nil, errors.New("no write due after the kill was confirmed")
		}
		t.outageMs = ms(s.end.Sub(killedAt))
	}
	p.traced = t
	return p, nil
}
