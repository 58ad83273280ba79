package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// TestMain lets the smoke tests spawn this test binary as replica children.
func TestMain(m *testing.M) {
	if os.Getenv(replicaEnv) != "" {
		if err := replicaMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "replica:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func smokeOptions(t *testing.T, name string, trace bool, seconds int) options {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return options{
		wl:       wl,
		seed:     1,
		duration: time.Duration(seconds) * time.Second,
		trace:    trace,
		runDir:   filepath.Join(t.TempDir(), "runs"),
		exe:      exe,
		sessions: runtime.NumCPU(),
	}
}

// TestSmokeEndToEnd runs every workload for three seconds, correctness gate
// included, and checks every end-to-end metric is reported.
func TestSmokeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns replica clusters")
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			m, attempted, failed, err := run(smokeOptions(t, wl.name, false, 3))
			if err != nil {
				t.Fatal(err)
			}
			if attempted < 1 || failed != 0 {
				t.Errorf("attempted %d, failed %d", attempted, failed)
			}
			for _, name := range []string{"net_bytes_per_op", "wal_bytes_per_op", "replica_rss_mb", "setup_s"} {
				if v, ok := m.byName[name]; !ok || v.Value <= 0 {
					t.Errorf("%s = %+v, %v; want a positive figure", name, v, ok)
				}
			}
			if len(m.names) != 4 {
				t.Errorf("reported %v, want the 4 end-to-end metrics", m.names)
			}
			if len(m.info) == 0 {
				t.Error("no throughput, latency and CPU figures printed")
			}
		})
	}
}

// TestSmokeTraced runs the traced breakdown of the sharded and the
// leader-crash workloads.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns replica clusters")
	}
	for _, name := range []string{"kv-sharded", "leader-crash"} {
		t.Run(name, func(t *testing.T) {
			m, _, failed, err := run(smokeOptions(t, name, true, 6))
			if err != nil {
				t.Fatal(err)
			}
			if failed != 0 {
				t.Errorf("failed %d", failed)
			}
			if len(m.names) != len(layerMetrics) {
				t.Errorf("reported %d per-layer metrics, want %d", len(m.names), len(layerMetrics))
			}
			get := func(n string) float64 { return m.byName[n].Value }
			for _, n := range []string{"sigcrypto.verify_per_op", "transport.deliver_ms_per_op", "storage.fsync_per_op", "app.apply_us_mean", "client.quorum_wait_ms_p50", "replica.cpu_ms_per_op", "loadgen.throughput_ops_s", "loadgen.latency_tail_ms"} {
				if get(n) <= 0 {
					t.Errorf("%s = %v, want > 0", n, get(n))
				}
			}
			if name == "kv-sharded" && (get("group.mux_frames_per_op") <= 0 || get("group.decided_share_max") >= 1) {
				t.Errorf("sharded: mux frames %v, largest group share %v", get("group.mux_frames_per_op"), get("group.decided_share_max"))
			}
			if name == "leader-crash" {
				if get("smr.view_changes") < 1 || get("smr.regime_timeouts") < 1 || get("smr.outage_ms") <= 0 {
					t.Errorf("leader crash: view changes %v, regime timeouts %v, outage %vms",
						get("smr.view_changes"), get("smr.regime_timeouts"), get("smr.outage_ms"))
				}
			}
		})
	}
}
