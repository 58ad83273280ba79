package smr

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/sigcrypto"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// Tests of the windowed view change and the regime timer: the orphan-slot
// regression (a stranded command must resolve through the adaptive regime
// timer, not a full BaseTimeout), timer hygiene across Close, and the
// adaptive suspicion delay shrinking back after a leader failure heals.

// buildTimedLockstepGroup is buildLockstepGroup with a real BaseTimeout:
// deliveries stay deterministic (lockstep ReplicaNet), but the regime
// timers are live, so tests can pump the net while wall-clock suspicion
// drives the view change — the byz-harness idiom.
func buildTimedLockstepGroup(t *testing.T, cfg types.Config, seed int64, window, maxBatch int, timeout time.Duration, interval uint64) ([]*Replica, []*KVStore, *sim.ReplicaNet) {
	t.Helper()
	scheme := sigcrypto.NewHMAC(cfg.N, seed)
	net := sim.NewReplicaNet(cfg.N)
	reps := make([]*Replica, cfg.N)
	stores := make([]*KVStore, cfg.N)
	for i := 0; i < cfg.N; i++ {
		pid := types.ProcessID(i)
		stores[i] = NewKVStore()
		r, err := NewReplica(Config{
			Cluster:            cfg,
			Self:               pid,
			Signer:             scheme.Signer(pid),
			Verifier:           scheme.Verifier(),
			Transport:          net.Transport(pid),
			App:                stores[i],
			BaseTimeout:        timeout,
			WindowSize:         window,
			MaxBatch:           maxBatch,
			CheckpointInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}
	return reps, stores, net
}

// pumpUntil drains the lockstep net and polls cond, sleeping briefly so
// wall-clock timers can fire between drains.
func pumpUntil(t *testing.T, net *sim.ReplicaNet, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		net.Drain(0)
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSMROrphanSlotResolvesViaWindowedViewChange is the regression test for
// the orphan-slot hazard (ROADMAP item 4). The durability-skew shape: a
// client command reaches every replica except the view-1 leader (its ctrl
// forwards are parked), so the leader never proposes a slot for it. The old
// code had every follower speculatively open the slot with its own chunk
// and then sit on the full per-slot BaseTimeout before a view change could
// rescue it — with the 2s timeout below, resolution took >= 2s. Under
// leader-driven fill plus the adaptive regime timer, no orphan instance
// exists: the suspicion delay has shrunk toward the observed decide latency
// (floor BaseTimeout/16), the whole window changes view in one step, and
// the view-change leader grafts the stranded command onto its proposal —
// so the command must apply in strictly less than one BaseTimeout.
func TestSMROrphanSlotResolvesViaWindowedViewChange(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const base = 2 * time.Second
	reps, stores, net := buildTimedLockstepGroup(t, cfg, 81, 4, 1, base, 0)
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()
	leader := types.View(1).Leader(cfg.N)

	// Warm up through the leader: a few ordinary decides seed the latency
	// EWMA on every replica, which is what arms the fast suspicion.
	const warm = 3
	for i := 0; i < warm; i++ {
		submitKV(t, reps[leader], "warm", i)
		net.Drain(0)
	}
	for i, st := range stores {
		if st.AppliedOps() != warm {
			t.Fatalf("replica %d applied %d warm-up ops, want %d", i, st.AppliedOps(), warm)
		}
	}

	// Durability skew: the leader stops hearing ctrl forwards. A command
	// submitted at a follower is now pending on every replica but the one
	// that could propose it in view 1.
	net.SetHold(func(_, to types.ProcessID, payload []byte) bool {
		s, ok := payloadSlot(payload)
		return ok && s == ctrlSlot && to == leader
	})
	start := time.Now()
	submitKV(t, reps[0], "orphan", 100)

	pumpUntil(t, net, 30*time.Second, func() bool {
		for _, st := range stores {
			if st.AppliedOps() != warm+1 {
				return false
			}
		}
		return true
	}, "the stranded command to apply everywhere")
	elapsed := time.Since(start)

	if elapsed >= base {
		t.Fatalf("stranded command took %v to resolve, want < BaseTimeout %v (the orphan-slot stall)", elapsed, base)
	}
	// The slot that carried it cannot have been proposed by the view-1
	// leader — it never saw the command — so it must be a view-change
	// decision.
	d, ok := reps[0].Decided(warm)
	if !ok {
		t.Fatalf("slot %d undecided after the stranded command applied", warm)
	}
	if d.View < 2 {
		t.Fatalf("slot %d decided in view %d; the uninformed leader cannot have proposed it", warm, d.View)
	}
	for _, r := range reps {
		if err := r.inflightInvariantErr(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSMRRegimeTimerNoFireAfterClose pins timer hygiene: Close must stop
// the regime timer for good. A replica is parked in the suspicious state
// (work outstanding, leader silent) so its timer is armed and firing; after
// Close, the suspicion counter must never move again — a leaked timer
// firing into a closed replica is exactly the kind of use-after-close the
// race detector sees only if the fire actually happens. CI reruns this
// under -race -count=2.
func TestSMRRegimeTimerNoFireAfterClose(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const base = 30 * time.Millisecond
	reps, _, net := buildTimedLockstepGroup(t, cfg, 82, 4, 1, base, 0)
	closed := false
	defer func() {
		if !closed {
			for _, r := range reps {
				_ = r.Close()
			}
		}
	}()

	// Park every ctrl forward to the leader: the submitted command stays
	// pending, the followers' regime timers arm and keep firing (the view
	// change cannot complete because nothing is ever drained).
	net.SetHold(func(_, _ types.ProcessID, _ []byte) bool { return true })
	submitKV(t, reps[0], "hygiene", 1)
	waitFor(t, 10*time.Second, func() bool {
		return reps[0].m.regime.Load() >= 1
	}, "the regime timer to fire at least once while the replica is live")

	for _, r := range reps {
		_ = r.Close()
	}
	closed = true
	fired := make([]uint64, len(reps))
	for i, r := range reps {
		fired[i] = r.m.regime.Load()
	}
	// Several base timeouts of real time: a leaked timer would fire here.
	time.Sleep(8 * base)
	for i, r := range reps {
		if got := r.m.regime.Load(); got != fired[i] {
			t.Fatalf("replica %d regime timer fired after Close: %d -> %d suspicions", i, fired[i], got)
		}
	}
}

// TestSMRRegimeTimerShrinksAfterRecovery drives the adaptive timeout
// through its whole arc over a real concurrent transport: it shrinks below
// BaseTimeout once ordinary decides seed the EWMA, the leader's death is
// detected (suspicions fire, commands keep committing through the windowed
// view change), and after the cluster settles into the post-leader regime
// the delay shrinks back down instead of sticking at the backed-off cap.
func TestSMRRegimeTimerShrinksAfterRecovery(t *testing.T) {
	cfg := types.Generalized(1, 1)
	const base = 320 * time.Millisecond
	scheme := sigcrypto.NewHMAC(cfg.N, 83)
	net := transport.NewMemNetwork(cfg.N, 0)
	defer func() { _ = net.Close() }()
	reps := make([]*Replica, cfg.N)
	stores := make([]*KVStore, cfg.N)
	for i := 0; i < cfg.N; i++ {
		pid := types.ProcessID(i)
		stores[i] = NewKVStore()
		r, err := NewReplica(Config{
			Cluster:     cfg,
			Self:        pid,
			Signer:      scheme.Signer(pid),
			Verifier:    scheme.Verifier(),
			Transport:   net.Transport(pid),
			App:         stores[i],
			BaseTimeout: base,
			WindowSize:  8,
			MaxBatch:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		reps[i] = r
	}
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()
	leader := types.View(1).Leader(cfg.N)
	survivors := []int{0, 2, 3}
	appliedEverywhere := func(n uint64) func() bool {
		return func() bool {
			for _, i := range survivors {
				if stores[i].AppliedOps() < n {
					return false
				}
			}
			return true
		}
	}

	const warm = 8
	for i := 0; i < warm; i++ {
		submitKV(t, reps[0], "shrink", i)
		waitFor(t, 10*time.Second, appliedEverywhere(uint64(i+1)), "a warm-up op to apply")
	}
	if got := reps[0].regimeDelay(); got >= base {
		t.Fatalf("suspicion delay %v has not adapted below BaseTimeout %v after %d decides", got, base, warm)
	}

	// Kill the view-1 leader. Every further command must ride the windowed
	// view change: suspicion fires at the adapted delay, the new leader
	// grafts the stranded commands, and each decide re-feeds the EWMA.
	_ = reps[leader].Close()
	const post = 8
	for i := warm; i < warm+post; i++ {
		submitKV(t, reps[0], "shrink", i)
		waitFor(t, 20*time.Second, appliedEverywhere(uint64(i+1)), "a post-kill op to commit through the view change")
	}
	suspicions := reps[0].m.regime.Load()
	if suspicions == 0 {
		t.Fatal("no regime suspicion fired while committing past a dead leader")
	}
	// The delay must have come back down: progress resets the backoff and
	// fresh decides pull the EWMA toward the real latency, so the replica
	// is not stuck paying a backed-off timeout per slot forever.
	if d := reps[0].regimeDelay(); d > base/2 {
		t.Fatalf("suspicion delay %v stuck high after recovery (base %v, %d suspicions)", d, base, suspicions)
	}
}

// regimeDelay is the suspicion delay the regime timer would use if armed
// now (the fastbft_regime_timeout_seconds gauge).
func (r *Replica) regimeDelay() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.regimeDelayLocked()
}

// TestSMRLaggardCatchesUpInQuietCluster: a replica that missed slots its
// peers have since garbage-collected, and then helped decide later slots
// inside its window, holds decisions beyond a frontier it cannot advance on
// its own. Once client traffic stops, no checkpoint far enough ahead and no
// out-of-window message ever arrives as lag evidence, so the regime timer's
// repeated fruitless fires must fetch state instead.
func TestSMRLaggardCatchesUpInQuietCluster(t *testing.T) {
	testLaggardCatchesUp(t, false)
}

// TestSMRLaggardCatchesUpWithoutForwards is the quiet-cluster catch-up
// with every client-request forward to the laggard lost (a Byzantine
// forwarder, or a client that reached only the leader whose forward was
// dropped). The laggard then has no pending command of its own: the
// decisions beyond its frontier are the only work it waits on, and they
// alone must keep its regime timer armed.
func TestSMRLaggardCatchesUpWithoutForwards(t *testing.T) {
	testLaggardCatchesUp(t, true)
}

func testLaggardCatchesUp(t *testing.T, dropForwards bool) {
	cfg := types.Generalized(1, 1)
	const interval, window = 8, 8
	reps, stores, net := buildTimedLockstepGroup(t, cfg, 84, window, 1, 30*time.Millisecond, interval)
	defer func() {
		for _, r := range reps {
			_ = r.Close()
		}
	}()

	// Slots 0..5 decide without the laggard; slots 6 and 7 — still inside
	// its window, and below a checkpoint that could count as evidence —
	// decide with it.
	const laggard = types.ProcessID(3)
	if dropForwards {
		net.SetHold(func(_, to types.ProcessID, payload []byte) bool {
			s, ok := payloadSlot(payload)
			return ok && s == ctrlSlot && to == laggard
		})
	}
	net.SetDown(laggard, true)
	for i := 0; i < window-2; i++ {
		submitKV(t, reps[0], "lag", i)
		net.Drain(0)
	}
	net.SetDown(laggard, false)
	for i := window - 2; i < window; i++ {
		submitKV(t, reps[0], "lag", i)
		net.Drain(0)
	}
	if _, ok := reps[laggard].Decided(window - 1); !ok {
		t.Fatalf("laggard did not decide slot %d", window-1)
	}
	pumpUntil(t, net, 10*time.Second, func() bool {
		return reps[laggard].AppliedCount() == window
	}, "the laggard to catch up in a quiet cluster")
	if !bytes.Equal(stores[laggard].Snapshot(), stores[0].Snapshot()) {
		t.Fatal("laggard's store diverged after catching up")
	}
}
