//go:build amd64 || arm64

package main

// gid identifies the calling goroutine by its runtime g pointer: a few
// nanoseconds, against tens of microseconds for parsing runtime.Stack.
// A g can be reused once its goroutine exits; tracer.onSpan drops a
// request goroutine's record when the request ends.
func gid() uintptr { return getg() }

func getg() uintptr
