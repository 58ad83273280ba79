package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// burn spins the CPU for d.
func burn(d time.Duration) int {
	x := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	return x
}

var sink int

func TestCPUCoverageSplitsLabeledSamples(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles 1.2s of CPU")
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	a := rec.begin(spanVerify) // a top-level span labels its goroutine
	sink += burn(600 * time.Millisecond)
	rec.end(a)
	sink += burn(600 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	total, labeled, err := cpuCoverage(path)
	if err != nil {
		t.Fatal(err)
	}
	if total < int64(500*time.Millisecond) {
		t.Fatalf("profiled %v of CPU, want about 1.2s", time.Duration(total))
	}
	if share := float64(labeled) / float64(total); share < 0.25 || share > 0.75 {
		t.Errorf("labeled share %.2f, want about half", share)
	}
}

func TestSpanNesting(t *testing.T) {
	rec := newRecorder()
	outer := rec.begin(spanDeliver)
	inner := rec.begin(spanVerify)
	done := make(chan *active)
	go func() { done <- rec.begin(spanApply) }() // another goroutine: not nested
	other := <-done
	rec.end(inner)
	rec.end(outer)
	rec.end(other)
	spans := rec.snapshot()
	byName := map[string]span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName[spanVerify].Parent != byName[spanDeliver].ID {
		t.Errorf("verify parent = %d, want the delivery span %d", byName[spanVerify].Parent, byName[spanDeliver].ID)
	}
	if byName[spanDeliver].Parent != 0 || byName[spanApply].Parent != 0 {
		t.Errorf("top-level spans have parents: %+v", spans)
	}
}

func TestParseCoverageRejectsGarbage(t *testing.T) {
	if _, _, err := parseCoverage([]byte{0xff, 0xff}); err == nil {
		t.Error("want an error for a truncated message")
	}
	if _, _, err := parseCoverage(nil); err == nil {
		t.Error("want an error for a profile without a cpu sample type")
	}
}
