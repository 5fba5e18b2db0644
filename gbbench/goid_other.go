//go:build !amd64 && !arm64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// gid identifies the calling goroutine by the id in its stack header
// ("goroutine 42 [running]:"). Slow: tracing overhead is higher on
// these platforms.
func gid() uintptr {
	var buf [48]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return uintptr(id)
}
