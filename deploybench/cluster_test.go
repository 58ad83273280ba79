package main

import (
	"os"
	"testing"
	"time"
)

func TestCPUTicksCountsOwnWork(t *testing.T) {
	before, err := cpuTicks(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	sink += burn(200 * time.Millisecond)
	after, err := cpuTicks(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("CPU ticks went from %d to %d over 200 ms of spinning", before, after)
	}
	if _, err := cpuTicks(-1); err == nil {
		t.Fatal("read the CPU time of a process that does not exist")
	}
}
