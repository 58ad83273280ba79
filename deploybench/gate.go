package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/obs"
)

// expectation is what the load generator knows the cluster must hold: every
// write it confirmed, the final value of each key, and the keys whose final
// value a failed write left uncertain.
type expectation struct {
	confirmed int
	failed    int
	wrong     int
	final     map[string]string
	uncertain map[string]bool
}

// expect folds the samples of every phase of one cluster, in send order
// per session (sessions own disjoint keys), into the expected outcome.
func expect(phases ...[][]sample) expectation {
	e := expectation{final: map[string]string{}, uncertain: map[string]bool{}}
	for _, all := range phases {
		for _, ss := range all {
			for _, s := range ss {
				switch {
				case s.err != nil:
					e.failed++
					e.uncertain[s.key] = true
				case s.wrong:
					e.wrong++
				default:
					e.confirmed++
					e.final[s.key] = s.value
					delete(e.uncertain, s.key)
				}
			}
		}
	}
	return e
}

// checkResults is the first check of the correctness gate: every confirmed
// write returned the value written.
func (e expectation) checkResults() error {
	if e.wrong > 0 {
		return fmt.Errorf("correctness gate: %d confirmed writes returned another value", e.wrong)
	}
	return nil
}

// counterSum sums a counter across every label set of one snapshot.
func counterSum(s *obs.Snapshot, name string) float64 {
	total := 0.0
	for _, m := range s.Metrics {
		if m.Name == name {
			total += m.Value
		}
	}
	return total
}

// checkCounters is the counter half of the correctness gate over one read
// of every live replica: no malformed batch anywhere, every replica at the
// same apply frontier with every decided slot applied, and the confirmed
// writes applied exactly once (a failed write may or may not have
// applied).
//
// A replica that fell a window behind catches up by installing a
// checkpoint snapshot: its frontier jumps over slots it never decided
// (fastbft_applied_slots − fastbft_slots_decided_total), whose commands —
// one per slot at the deployed batch size of 1 — its application never
// applies. Its applied count may fall short by at most that many; its
// state is checked by its dump (checkState). At least one replica must
// have executed the whole log itself.
func checkCounters(snaps []*obs.Snapshot, e expectation) error {
	var frontier float64
	executedAll := false
	for i, s := range snaps {
		if m := counterSum(s, "fastbft_malformed_batches_total"); m != 0 {
			return fmt.Errorf("live replica %d reports %v malformed batches", i, m)
		}
		f := counterSum(s, "fastbft_applied_slots")
		if i == 0 {
			frontier = f
		} else if f != frontier {
			return fmt.Errorf("live replicas disagree on the apply frontier: %v vs %v", frontier, f)
		}
		skipped := f - counterSum(s, "fastbft_slots_decided_total")
		if skipped < 0 {
			return fmt.Errorf("live replica %d has %v decided slots left to apply", i, -skipped)
		}
		lo, hi := float64(e.confirmed)-skipped, float64(e.confirmed+e.failed)
		applied := counterSum(s, "fastbft_commands_applied_total")
		if applied < lo || applied > hi {
			return fmt.Errorf("live replica %d applied %v commands for %d confirmed and %d failed writes (%v slots caught up by snapshot)",
				i, applied, e.confirmed, e.failed, skipped)
		}
		executedAll = executedAll || skipped == 0
	}
	if !executedAll {
		return errors.New("no live replica executed the whole log itself")
	}
	return nil
}

// settle reads every live replica's /metrics.json until the counter gate
// passes or the deadline expires, and returns the passing read.
func settle(c *cluster, e expectation, within time.Duration) ([]*obs.Snapshot, error) {
	deadline := time.Now().Add(within)
	for {
		var snaps []*obs.Snapshot
		var err error
		for _, p := range c.live() {
			var s *obs.Snapshot
			if s, err = scrape(p.metricsAddr); err != nil {
				break
			}
			snaps = append(snaps, s)
		}
		if err == nil {
			if err = checkCounters(snaps, e); err == nil {
				return snaps, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("correctness gate: %w (%s; run directory %s)", err, describe(c.live(), snaps), c.dir)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// describe renders each replica's SMR progress from its last read.
func describe(procs []*proc, snaps []*obs.Snapshot) string {
	var b strings.Builder
	for i, s := range snaps {
		if i < len(procs) {
			fmt.Fprintf(&b, "replica %d:", procs[i].id)
		}
		for _, name := range []string{"fastbft_commands_applied_total", "fastbft_slots_decided_total", "fastbft_applied_slots", "fastbft_pending_commands", "fastbft_inflight_commands", "fastbft_view_changes_total"} {
			fmt.Fprintf(&b, " %s=%v", strings.TrimPrefix(name, "fastbft_"), counterSum(s, name))
		}
		b.WriteString("; ")
	}
	return strings.TrimSuffix(b.String(), "; ")
}

// checkState compares one replica's dumped key/value state with the
// expectation: every confirmed key holds its last confirmed value, and no
// key holds anything the load generator never wrote.
func checkState(state map[string]string, e expectation) error {
	for k, v := range e.final {
		if e.uncertain[k] {
			continue
		}
		if got, ok := state[k]; !ok || got != v {
			return fmt.Errorf("key %s holds %.16q (present %v), want %.16q", k, got, ok, v)
		}
	}
	for k := range state {
		if _, ok := e.final[k]; !ok && !e.uncertain[k] {
			return fmt.Errorf("key %s holds a value no confirmed write produced", k)
		}
	}
	return nil
}

// checkStates applies checkState to every live replica's dump.
func checkStates(c *cluster, e expectation) error {
	for _, p := range c.live() {
		st, err := readState(filepath.Join(c.dir, fmt.Sprintf("state-%d.txt", p.id)))
		if err != nil {
			return err
		}
		if err := checkState(st, e); err != nil {
			return fmt.Errorf("correctness gate: replica %d: %w", p.id, err)
		}
	}
	return nil
}
