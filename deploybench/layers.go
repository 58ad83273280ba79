package main

import (
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// traced is what a traced phase leaves for the per-layer breakdown.
type traced struct {
	ops     int             // writes confirmed over the cluster's life
	snaps   []*obs.Snapshot // the gate's read of every live replica
	liveIDs []int           // process ids parallel to snaps and spans
	spans   [][]span        // each live replica's spans
	client  []span          // the load generator's client spans
	// cpuSampled and cpuLabeled are the live replicas' profiled CPU, all
	// of it and the part taken inside a top-level span (ns).
	cpuSampled int64
	cpuLabeled int64
	shards     int         //
	leaderUp   bool        // the view-1 leader survived the run
	window     windowStats //
	outageMs   float64     // leader-crash: kill to first confirmation due after it
}

// layerMetric names one per-layer figure and its unit, in report order.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"client.sends_per_op", "count"},
	{"client.retransmits_per_kop", "count"},
	{"client.replies_per_op", "count"},
	{"client.quorum_wait_ms_p50", "ms"},
	{"sigcrypto.verify_per_op", "count"},
	{"sigcrypto.verify_distinct_ratio", "ratio"},
	{"sigcrypto.verify_us_mean", "us"},
	{"sigcrypto.verify_ms_per_op", "ms"},
	{"sigcrypto.sign_per_op", "count"},
	{"sigcrypto.sign_ms_per_op", "ms"},
	{"sigcrypto.verify_failed_per_kop", "count"},
	{"transport.frames_out_per_op", "count"},
	{"transport.bytes_out_per_op", "bytes"},
	{"transport.send_us_mean", "us"},
	{"transport.deliver_ms_per_op", "ms"},
	{"smr.self_ms_per_op", "ms"},
	{"smr.cmds_per_slot", "count"},
	{"smr.msgs_in_per_op", "count"},
	{"smr.reproposed_per_kop", "count"},
	{"smr.regime_timeouts", "count"},
	{"smr.view_changes", "count"},
	{"smr.outage_ms", "ms"},
	{"core.fast_path_share", "ratio"},
	{"stage.proposed_ms_p50", "ms"},
	{"stage.decided_ms_p50", "ms"},
	{"stage.applied_ms_p50", "ms"},
	{"stage.durable_ms_p50", "ms"},
	{"stage.replied_ms_p50", "ms"},
	{"storage.fsync_per_op", "count"},
	{"storage.fsync_ms_p50", "ms"},
	{"storage.records_per_fsync", "count"},
	{"storage.wal_bytes_per_op", "bytes"},
	{"app.apply_us_mean", "us"},
	{"app.snapshot_ms_mean", "ms"},
	{"app.snapshot_bytes", "bytes"},
	{"app.snapshots_per_kop", "count"},
	{"group.mux_frames_per_op", "count"},
	{"group.decided_share_max", "ratio"},
	{"replica.cpu_ms_per_op", "ms"},
	{"loadgen.throughput_ops_s", "1/s"},
	{"loadgen.latency_p50_ms", "ms"},
	{"loadgen.latency_tail_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.failed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unaccounted_frac", "ratio"},
}

// layerValues computes every per-layer figure except trace.overhead_frac
// and the loadgen throughput and latency, which come from the untraced
// phase.
func layerValues(t *traced) map[string]float64 {
	v := map[string]float64{}
	ops := float64(t.ops)
	perOp := func(x float64) float64 { return x / ops }

	// client: one span per settled request.
	var sends, replies, retrans float64
	var waits []float64
	for _, s := range t.client {
		sends += float64(s.Sends)
		replies += float64(s.Replies)
		if rounds := (s.Sends + clusterCfg.N - 1) / clusterCfg.N; rounds > 1 {
			retrans += float64(rounds - 1)
		}
		waits = append(waits, ms(time.Duration(s.End-s.Start)))
	}
	reqs := float64(len(t.client))
	v["client.sends_per_op"] = sends / reqs
	v["client.retransmits_per_kop"] = 1000 * retrans / reqs
	v["client.replies_per_op"] = replies / reqs
	v["client.quorum_wait_ms_p50"] = percentile(waits, 50)

	// Replica spans, by name, and smr self time: delivery and request spans
	// minus the spans nested directly inside them.
	count := map[string]float64{}
	busy := map[string]time.Duration{}
	var bytesSnap, distinct float64
	var failed float64
	var self time.Duration
	for _, spans := range t.spans {
		children := map[uint64]time.Duration{}
		keys := map[uint64]bool{}
		for _, s := range spans {
			d := time.Duration(s.End - s.Start)
			count[s.Name]++
			busy[s.Name] += d
			if s.Parent != 0 {
				children[s.Parent] += d
			}
			switch s.Name {
			case spanVerify:
				keys[s.Key] = true
				if s.Failed {
					failed++
				}
			case spanSnapshot:
				bytesSnap += float64(s.Bytes)
			}
		}
		distinct += float64(len(keys))
		for _, s := range spans {
			if s.Name == spanDeliver || s.Name == spanRequest {
				self += time.Duration(s.End-s.Start) - children[s.ID]
			}
		}
	}
	meanUs := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(busy[name]) / float64(time.Microsecond) / count[name]
	}
	v["sigcrypto.verify_per_op"] = perOp(count[spanVerify])
	v["sigcrypto.verify_distinct_ratio"] = ratio(distinct, count[spanVerify])
	v["sigcrypto.verify_us_mean"] = meanUs(spanVerify)
	v["sigcrypto.verify_ms_per_op"] = perOp(ms(busy[spanVerify]))
	v["sigcrypto.sign_per_op"] = perOp(count[spanSign])
	v["sigcrypto.sign_ms_per_op"] = perOp(ms(busy[spanSign]))
	v["sigcrypto.verify_failed_per_kop"] = 1000 * perOp(failed)
	v["transport.send_us_mean"] = meanUs(spanSend)
	v["transport.deliver_ms_per_op"] = perOp(ms(busy[spanDeliver]))
	v["smr.self_ms_per_op"] = perOp(ms(self))
	v["app.apply_us_mean"] = meanUs(spanApply)
	v["app.snapshot_ms_mean"] = meanUs(spanSnapshot) / 1000
	v["app.snapshot_bytes"] = ratio(bytesSnap, count[spanSnapshot])
	v["app.snapshots_per_kop"] = 1000 * perOp(count[spanSnapshot])
	v["trace.unaccounted_frac"] = 1 - ratio(float64(t.cpuLabeled), float64(t.cpuSampled))

	// Registry counters, summed over the live replicas.
	sum := func(name string) float64 {
		total := 0.0
		for _, s := range t.snaps {
			total += counterSum(s, name)
		}
		return total
	}
	v["transport.frames_out_per_op"] = perOp(sum("fastbft_net_frames_out_total"))
	v["transport.bytes_out_per_op"] = perOp(sum("fastbft_net_bytes_out_total"))
	v["smr.cmds_per_slot"] = ratio(sum("fastbft_commands_applied_total"), sum("fastbft_slots_decided_total"))
	v["smr.msgs_in_per_op"] = perOp(sum("fastbft_messages_in_total"))
	v["smr.reproposed_per_kop"] = 1000 * perOp(sum("fastbft_commands_reproposed_total"))
	v["smr.regime_timeouts"] = sum("fastbft_regime_timeouts_total")
	v["smr.view_changes"] = sum("fastbft_view_changes_total")
	v["smr.outage_ms"] = t.outageMs
	fast := 0.0
	for _, s := range t.snaps {
		fast += series(s, "fastbft_decided_path_total", map[string]string{"path": "fast"})
	}
	v["core.fast_path_share"] = ratio(fast, sum("fastbft_decided_path_total"))
	v["storage.fsync_per_op"] = perOp(sum("fastbft_wal_syncs_total"))
	v["storage.records_per_fsync"] = ratio(sum("fastbft_wal_records_total"), sum("fastbft_wal_syncs_total"))
	v["storage.wal_bytes_per_op"] = perOp(sum("fastbft_wal_bytes_total"))
	v["storage.fsync_ms_p50"] = 1000 * histQuantile(t.snaps, "fastbft_fsync_seconds", nil, 0.5)
	v["group.mux_frames_per_op"] = perOp(sum("fastbft_mux_frames_out_total"))
	maxShare := 0.0
	for g := 0; g < t.shards; g++ {
		decided := 0.0
		for _, s := range t.snaps {
			decided += series(s, "fastbft_slots_decided_total", map[string]string{"group": strconv.Itoa(g)})
		}
		maxShare = math.Max(maxShare, ratio(decided, sum("fastbft_slots_decided_total")))
	}
	v["group.decided_share_max"] = maxShare

	// Stages: the view-1 leader of each group while it lives, else every
	// live replica. Cumulative from submit, so never subtracted.
	var leaders []*obs.Snapshot
	var leaderOf []map[string]string
	for i, s := range t.snaps {
		for g := 0; g < t.shards; g++ {
			if !t.leaderUp || t.liveIDs[i] == (1+g)%clusterCfg.N {
				leaders = append(leaders, s)
				leaderOf = append(leaderOf, map[string]string{"group": strconv.Itoa(g)})
			}
		}
	}
	for _, st := range []string{"proposed", "decided", "applied", "durable", "replied"} {
		v["stage."+st+"_ms_p50"] = 1000 * stageQuantile(leaders, leaderOf, st, 0.5)
	}

	late, _, err := tail(t.window.lateMs)
	if err != nil {
		late = 0
	}
	v["loadgen.late_ms_p99"] = late
	v["loadgen.failed_frac"] = ratio(float64(t.window.failed), float64(t.window.attempted))
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// matches reports whether labels carry every want pair.
func matches(labels, want map[string]string) bool {
	for k, w := range want {
		if labels[k] != w {
			return false
		}
	}
	return true
}

// series sums the counter name over the label sets matching want.
func series(s *obs.Snapshot, name string, want map[string]string) float64 {
	total := 0.0
	for _, m := range s.Metrics {
		if m.Name == name && matches(m.Labels, want) {
			total += m.Value
		}
	}
	return total
}

// stageQuantile merges the fastbft_stage_seconds{stage=st} histograms of
// snaps[i] restricted to want[i], and returns quantile q in seconds.
func stageQuantile(snaps []*obs.Snapshot, want []map[string]string, st string, q float64) float64 {
	var merged []obs.BucketSnapshot
	for i, s := range snaps {
		w := map[string]string{"stage": st}
		for k, x := range want[i] {
			w[k] = x
		}
		merged = mergeBuckets(merged, s, "fastbft_stage_seconds", w)
	}
	return bucketQuantile(merged, q)
}

// histQuantile merges a histogram over snaps and returns quantile q.
func histQuantile(snaps []*obs.Snapshot, name string, want map[string]string, q float64) float64 {
	var merged []obs.BucketSnapshot
	for _, s := range snaps {
		merged = mergeBuckets(merged, s, name, want)
	}
	return bucketQuantile(merged, q)
}

// mergeBuckets adds the cumulative buckets of every matching series of s
// into acc (all series of one histogram share bounds).
func mergeBuckets(acc []obs.BucketSnapshot, s *obs.Snapshot, name string, want map[string]string) []obs.BucketSnapshot {
	for _, m := range s.Metrics {
		if m.Name != name || m.Type != "histogram" || !matches(m.Labels, want) {
			continue
		}
		if acc == nil {
			acc = make([]obs.BucketSnapshot, len(m.Buckets))
			for i, b := range m.Buckets {
				acc[i].LE = b.LE
			}
		}
		for i, b := range m.Buckets {
			if i < len(acc) {
				acc[i].Count += b.Count
			}
		}
	}
	return acc
}

// bucketQuantile interpolates quantile q linearly inside the bucket that
// holds it, as Prometheus' histogram_quantile does. The +Inf bucket (LE -1
// in the JSON export) yields the largest finite bound.
func bucketQuantile(b []obs.BucketSnapshot, q float64) float64 {
	if len(b) == 0 || b[len(b)-1].Count == 0 {
		return 0
	}
	total := float64(b[len(b)-1].Count)
	target := q * total
	i := sort.Search(len(b), func(i int) bool { return float64(b[i].Count) >= target })
	lo, below := 0.0, 0.0
	if i > 0 {
		lo, below = b[i-1].LE, float64(b[i-1].Count)
	}
	if b[i].LE < 0 {
		return lo
	}
	in := float64(b[i].Count) - below
	if in == 0 {
		return b[i].LE
	}
	return lo + (b[i].LE-lo)*(target-below)/in
}
