package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the highest whole percentile, capped at 99, that
// leaves at least minBeyond of n samples strictly beyond it under the
// nearest-rank rule (the value at percentile p is the ceil(p·n/100)-th
// smallest sample). It returns false when even the median leaves fewer.
func tailPercentile(n int) (int, bool) {
	for p := 99; p >= 50; p-- {
		if n-rank(float64(p), n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n) / 100))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (which it sorts).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), leaving xs sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// metricName is the name rule of the result file: a letter or digit, then
// up to 63 letters, digits, '_', '.' or '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// unitName is the unit rule: up to 16 letters, digits, '_', '/', '%', '.'
// or '-'.
var unitName = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects figures in report order.
type metrics struct {
	names  []string
	byName map[string]metric
	notes  map[string]string // per-metric annotation for the human report
	info   []string          // figures printed for people, not in the result line
}

func newMetrics() *metrics {
	return &metrics{byName: map[string]metric{}, notes: map[string]string{}}
}

// add records a figure, rejecting a malformed or repeated name, a malformed
// unit, and a value JSON cannot carry.
func (m *metrics) add(name, unit string, v float64) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("metric name %q is not valid", name)
	}
	if !unitName.MatchString(unit) {
		return fmt.Errorf("metric %s: unit %q is not valid", name, unit)
	}
	if _, dup := m.byName[name]; dup {
		return fmt.Errorf("metric %s reported twice", name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is %v", name, v)
	}
	m.names = append(m.names, name)
	m.byName[name] = metric{Value: v, Unit: unit}
	return nil
}

// note attaches a human-readable annotation (sample count, percentile used)
// to a recorded metric.
func (m *metrics) note(name, text string) { m.notes[name] = text }

// result is the final line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultLine renders the final JSON line.
func resultLine(attempted, failed int, m *metrics) (string, error) {
	b, err := json.Marshal(result{Correct: true, Attempted: attempted, Failed: failed, Metrics: m.byName})
	return string(b), err
}
