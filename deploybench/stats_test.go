package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want int
		ok   bool
	}{
		{n: 5000, want: 99, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 999, want: 98, ok: true},
		{n: 500, want: 98, ok: true},
		{n: 499, want: 97, ok: true},
		{n: 20, want: 50, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.want, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if beyond := c.n - rank(float64(p), c.n); beyond < minBeyond {
			t.Errorf("n=%d: p%d leaves %d beyond, want >= %d", c.n, p, beyond, minBeyond)
		}
		if p < 99 {
			if beyond := c.n - rank(float64(p+1), c.n); beyond >= minBeyond {
				t.Errorf("n=%d: p%d also leaves %d beyond; p%d is not the highest", c.n, p+1, beyond, p)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailRejectsFailedWritesAndShortRuns(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(i)
	}
	if v, p, err := tail(lat); err != nil || p != 90 || v != 89 {
		t.Errorf("tail = %v, p%d, %v; want 89, p90, nil", v, p, err)
	}
	for i := 80; i < 100; i++ {
		lat[i] = math.Inf(1) // failed writes miss every latency limit
	}
	if _, _, err := tail(lat); err == nil {
		t.Error("tail on a failed write: want an error")
	}
	if _, _, err := tail(lat[:10]); err == nil {
		t.Error("tail of 10 samples: want an error")
	}
}

func TestMetricNameValidation(t *testing.T) {
	m := newMetrics()
	for _, name := range []string{"latency_p50_ms", "sigcrypto.verify_per_op", "9lives", "a-b.c_d"} {
		if err := m.add(name, "ms", 1); err != nil {
			t.Errorf("add(%q): %v", name, err)
		}
	}
	bad := []struct{ name, unit string }{
		{"", "ms"},
		{"_leading", "ms"},
		{".leading", "ms"},
		{"has space", "ms"},
		{"slash/name", "ms"},
		{strings.Repeat("x", 65), "ms"},
		{"latency_p50_ms", "ms"}, // repeated
		{"ok_name", ""},
		{"ok_name2", "m s"},
		{"ok_name3", strings.Repeat("u", 17)},
	}
	for _, b := range bad {
		if err := m.add(b.name, b.unit, 1); err == nil {
			t.Errorf("add(%q, %q): want an error", b.name, b.unit)
		}
	}
	if err := m.add("nan_value", "ms", math.NaN()); err == nil {
		t.Error("NaN value: want an error")
	}
	if err := m.add(strings.Repeat("x", 64), "1/s", 2); err != nil {
		t.Errorf("64-character name: %v", err)
	}
}

func TestLayerMetricNamesAreValidAndUnique(t *testing.T) {
	m := newMetrics()
	for _, lm := range layerMetrics {
		if err := m.add(lm.name, lm.unit, 0); err != nil {
			t.Error(err)
		}
	}
}

func TestResultLineShape(t *testing.T) {
	m := newMetrics()
	if err := m.add("setup_s", "s", 0.25); err != nil {
		t.Fatal(err)
	}
	line, err := resultLine(10, 1, m)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, line)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(got), line)
	}
	if !strings.Contains(line, `"setup_s":{"value":0.25,"unit":"s"}`) {
		t.Errorf("metric encoding: %s", line)
	}
}

func TestBucketQuantileInterpolates(t *testing.T) {
	b := []obs.BucketSnapshot{{LE: 1, Count: 10}, {LE: 2, Count: 30}, {LE: -1, Count: 40}}
	if got := bucketQuantile(b, 0.5); got != 1.5 {
		t.Errorf("p50 = %v, want 1.5", got)
	}
	if got := bucketQuantile(b, 0.9); got != 2 {
		t.Errorf("p90 in the +Inf bucket = %v, want the largest finite bound 2", got)
	}
	if got := bucketQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty histogram = %v, want 0", got)
	}
}
