package main

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestGateRejectsWrongResult(t *testing.T) {
	wl := workload{name: "t", valueSize: 8, keys: 10}
	s := &fakeSession{wrongAt: 2}
	st := newOpStream(wl, 1, 0, 1)
	var ss []sample
	for i := 0; i < 3; i++ {
		ss = append(ss, do(s, st.next(), time.Time{}))
	}
	if ss[0].wrong || !ss[1].wrong || ss[2].wrong {
		t.Fatalf("wrong flags = %v %v %v, want only the second", ss[0].wrong, ss[1].wrong, ss[2].wrong)
	}
	e := expect([][]sample{ss})
	if e.wrong != 1 || e.confirmed != 2 {
		t.Fatalf("expectation %+v: want 1 wrong, 2 confirmed", e)
	}
	if e.final[ss[1].key] == ss[1].value {
		t.Error("a wrong confirmation must not become the key's expected value")
	}
	if err := e.checkResults(); err == nil {
		t.Error("the gate passed a run with a wrong result")
	}
}

// snapshotWith renders one replica's read: applied commands, malformed
// batches, slots decided and the apply frontier.
func snapshotWith(applied, malformed, decided, frontier float64) *obs.Snapshot {
	ls := map[string]string{"group": "0"}
	return &obs.Snapshot{Metrics: []obs.MetricSnapshot{
		{Name: "fastbft_commands_applied_total", Labels: ls, Type: "counter", Value: applied},
		{Name: "fastbft_malformed_batches_total", Labels: ls, Type: "counter", Value: malformed},
		{Name: "fastbft_slots_decided_total", Labels: ls, Type: "counter", Value: decided},
		{Name: "fastbft_applied_slots", Labels: ls, Type: "gauge", Value: frontier},
	}}
}

func TestCheckCounters(t *testing.T) {
	e := expectation{confirmed: 100}
	ok := snapshotWith(100, 0, 101, 101)
	if err := checkCounters([]*obs.Snapshot{ok, ok, ok}, e); err != nil {
		t.Fatalf("consistent replicas: %v", err)
	}
	// A replica that caught up by snapshot skipped applying 3 slots.
	caughtUp := snapshotWith(97, 0, 98, 101)
	if err := checkCounters([]*obs.Snapshot{ok, caughtUp, ok}, e); err != nil {
		t.Errorf("snapshot catch-up: %v", err)
	}
	cases := map[string][]*obs.Snapshot{
		"frontiers disagree":   {ok, snapshotWith(99, 0, 100, 100)},
		"malformed":            {snapshotWith(100, 1, 101, 101), ok},
		"lost write":           {snapshotWith(99, 0, 101, 101), ok},
		"applied twice":        {snapshotWith(101, 0, 101, 101), ok},
		"decided, not applied": {snapshotWith(99, 0, 102, 101), ok},
		"short beyond skipped": {ok, snapshotWith(96, 0, 98, 101)},
		"nobody executed all":  {caughtUp, caughtUp},
	}
	for name, snaps := range cases {
		if err := checkCounters(snaps, e); err == nil {
			t.Errorf("%s: want an error", name)
		}
	}
	// A failed write may or may not have applied.
	e.failed = 1
	if err := checkCounters([]*obs.Snapshot{snapshotWith(101, 0, 102, 102)}, e); err != nil {
		t.Errorf("one failed write that applied: %v", err)
	}
}

func TestCheckState(t *testing.T) {
	e := expect([][]sample{{
		{key: "k00001", value: "a"},
		{key: "k00001", value: "b"},
		{key: "k00002", value: "c"},
		{key: "k00003", value: "d", err: errors.New("timeout")},
	}})
	if err := checkState(map[string]string{"k00001": "b", "k00002": "c"}, e); err != nil {
		t.Errorf("matching state: %v", err)
	}
	if err := checkState(map[string]string{"k00001": "b", "k00002": "c", "k00003": "d"}, e); err != nil {
		t.Errorf("a failed write that applied: %v", err)
	}
	bad := map[string]map[string]string{
		"stale value":   {"k00001": "a", "k00002": "c"},
		"missing key":   {"k00001": "b"},
		"unwritten key": {"k00001": "b", "k00002": "c", "k00009": "x"},
	}
	for name, st := range bad {
		err := checkState(st, e)
		if err == nil {
			t.Errorf("%s: want an error", name)
		} else if !strings.Contains(err.Error(), "k0000") {
			t.Errorf("%s: error %q does not name the key", name, err)
		}
	}
}
