//go:build !amd64 && !arm64

package main

import "runtime"

// curg returns the running goroutine's id, parsed from the header line of
// its stack trace ("goroutine 123 [running]:"). This portable fallback
// costs microseconds per call.
func curg() uintptr {
	var buf [32]byte
	b := buf[:runtime.Stack(buf[:], false)]
	var id uintptr
	for i := len("goroutine "); i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		id = id*10 + uintptr(b[i]-'0')
	}
	return id
}
