//go:build amd64 || arm64

package main

// curg returns the address of the running goroutine's descriptor: unique
// among live goroutines and constant for a goroutine's life, which is all
// the recorder needs to nest spans. It costs a load, where parsing a stack
// trace for the goroutine id costs microseconds per span.
func curg() uintptr
