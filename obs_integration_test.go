package fastbft

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsRegistryShardConsistency pins the registry — the one counter
// surface — to ground truth on a sharded replica. Once the deployment
// quiesces, the applied-command counters summed over groups equal the
// writes the client confirmed, each group's counter equals the commands its
// store executed, and each group's decided-slot counter equals its apply
// frontier. Before the registry existed, counters were read field by field
// from unsynchronized variables; this test is the regression fence for that
// torn-read class of bug.
func TestMetricsRegistryShardConsistency(t *testing.T) {
	cfg := GeneralizedConfig(1, 1) // n = 4
	const shards = 2
	keys := GenerateTestKeys(cfg.N, 31)
	reps, _ := bootShardedCluster(t, cfg, keys, shards)
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()

	cl, err := NewKVClient("consistency-client", 2*time.Second, reps...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	const ops = 24
	for i := 0; i < ops; i++ {
		key, want := fmt.Sprintf("ck-%d", i), fmt.Sprintf("cv-%d", i)
		if got, err := cl.Set(key, want); err != nil || got != want {
			t.Fatalf("write %d: got %q, err %v", i, got, err)
		}
	}

	for i, r := range reps {
		rep := strconv.Itoa(i)
		check := func(snap *obs.Snapshot) error {
			if got := snap.Sum("fastbft_commands_applied_total", obs.Labels{"replica": rep}); got != ops {
				return fmt.Errorf("registry counts %v applied commands, the client confirmed %d", got, ops)
			}
			for g := 0; g < shards; g++ {
				gl := obs.Labels{"group": strconv.Itoa(g), "replica": rep}
				applied, ok := snap.Value("fastbft_commands_applied_total", gl)
				if !ok {
					return fmt.Errorf("group %d: applied counter not in the registry", g)
				}
				if n := r.stores[g].AppliedOps(); uint64(applied) != n {
					return fmt.Errorf("group %d: registry counts %v applied commands, the store %d", g, applied, n)
				}
				decided, _ := snap.Value("fastbft_slots_decided_total", gl)
				frontier, _ := snap.Value("fastbft_applied_slots", gl)
				if decided != frontier {
					return fmt.Errorf("group %d: %v slots decided, apply frontier %v", g, decided, frontier)
				}
			}
			return nil
		}
		// Decisions can still be landing for a moment after the last client
		// confirmation (window slots deciding no-ops, followers catching
		// up), so poll until the replica settles.
		deadline := time.Now().Add(30 * time.Second)
		for {
			err := check(r.Metrics().Snapshot())
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d: %v", i, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestMetricsEndpointLiveScrape drives a workload against a real TCP cluster
// while scraping one replica's opt-in HTTP introspection endpoint — the
// Prometheus text form and the JSON snapshot — and requires the counters to
// be live (decided slots grow between scrapes) and the staged request tracer
// to have carried batches all the way to "replied".
func TestMetricsEndpointLiveScrape(t *testing.T) {
	cfg := GeneralizedConfig(1, 1) // n = 4
	keys := GenerateTestKeys(cfg.N, 37)
	reps := make([]*KVReplica, cfg.N)
	addrs := make([]string, cfg.N)
	for i := 0; i < cfg.N; i++ {
		c := KVReplicaConfig{
			Cluster:    cfg,
			Self:       ProcessID(i),
			Keys:       keys,
			ListenAddr: "127.0.0.1:0",
		}
		if i == 0 {
			c.MetricsAddr = "127.0.0.1:0"
		}
		r, err := NewKVReplica(c)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = r
		addrs[i] = r.Addr()
	}
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()
	for _, r := range reps {
		if err := r.SetPeers(addrs); err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	maddr := reps[0].MetricsAddr()
	if maddr == "" {
		t.Fatal("replica 0 has no metrics endpoint despite MetricsAddr being set")
	}
	if reps[1].MetricsAddr() != "" {
		t.Fatal("replica 1 bound a metrics endpoint without opting in")
	}

	scrapeJSON := func() *obs.Snapshot {
		t.Helper()
		resp, err := http.Get("http://" + maddr + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics.json: HTTP %d", resp.StatusCode)
		}
		var snap obs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return &snap
	}

	// Scrape mid-workload: a client goroutine keeps the cluster busy —
	// confirmed writes, so replies flow and the tracer reaches "replied" —
	// while the main goroutine hits the endpoint.
	cl, err := NewKVClient("scrape-client", 2*time.Second, reps...)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	const ops = 30
	value4K := strings.Repeat("v", 4096)
	done := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ops; i++ {
			if _, err := cl.Set(fmt.Sprintf("sk-%d", i), fmt.Sprintf("sv-%d-%s", i, value4K)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	first := scrapeJSON()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	decided := func(snap *obs.Snapshot) float64 {
		return snap.Sum("fastbft_slots_decided_total", obs.Labels{"replica": "0"})
	}
	deadline := time.Now().Add(30 * time.Second)
	var second *obs.Snapshot
	for {
		second = scrapeJSON()
		if decided(second) > decided(first) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("decided counter never advanced between scrapes: first %v, second %v",
				decided(first), decided(second))
		}
		time.Sleep(5 * time.Millisecond)
	}
	replied, ok := second.HistCount("fastbft_stage_seconds",
		obs.Labels{"group": "0", "replica": "0", "stage": "replied"})
	if !ok || replied == 0 {
		t.Fatalf("stage histogram %q: present=%v count=%d, want live observations", "replied", ok, replied)
	}
	if !second.Has("fastbft_messages_in_total", obs.Labels{"group": "0", "replica": "0", "kind": "propose"}) {
		t.Fatal("per-kind message counters missing from the JSON snapshot")
	}
	// Acks name the value by digest, so their envelopes stay small and
	// fixed-size whatever the command.
	ackLabels := obs.Labels{"group": "0", "replica": "0", "kind": "ack"}
	acks, _ := second.Value("fastbft_messages_out_total", ackLabels)
	ackBytes, _ := second.Value("fastbft_message_bytes_out_total", ackLabels)
	if acks == 0 || ackBytes < 32*acks || ackBytes > 64*acks {
		t.Fatalf("ack envelopes: %v bytes over %v acks, want 32–64 bytes each", ackBytes, acks)
	}
	// A Commit goes to each peer on its own link, and to a peer that has
	// acked the value it carries only the value's digest: with 4 KiB values
	// the digest form stays a few hundred bytes, and it is the common form.
	kindLabels := func(kind string) obs.Labels { return obs.Labels{"group": "0", "replica": "0", "kind": kind} }
	digestForms, _ := second.Value("fastbft_messages_out_total", kindLabels("commitdigest"))
	digestBytes, _ := second.Value("fastbft_message_bytes_out_total", kindLabels("commitdigest"))
	fullForms, _ := second.Value("fastbft_messages_out_total", kindLabels("commit"))
	if digestForms == 0 || digestBytes >= 512*digestForms {
		t.Fatalf("digest-only commits: %v bytes over %v envelopes, want under 512 bytes each", digestBytes, digestForms)
	}
	if digestForms <= fullForms {
		t.Fatalf("%v digest-only commits vs %v full ones, want the digest form to outnumber the full one", digestForms, fullForms)
	}

	// The Prometheus text form must carry the same families, typed and
	// help-annotated, so a stock scraper can ingest it.
	resp, err := http.Get("http://" + maddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE fastbft_slots_decided_total counter",
		"# TYPE fastbft_stage_seconds histogram",
		"fastbft_stage_seconds_bucket",
		`stage="replied"`,
		"fastbft_net_frames_in_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics text output missing %q", want)
		}
	}
}
