//go:build !amd64

package native

import (
	"errors"

	"dbtrules/x86"
)

// Supported reports whether this build carries the native back end. On
// non-amd64 hosts the emitter is compiled out: every block runs on the
// interpreter and every native gate auto-skips.
func Supported() bool { return false }

var errUnsupported = errors.New("native: amd64 back end not compiled in")

// Compile is unavailable without the amd64 back end.
func Compile(host []x86.Instr, costs []uint64) (*Code, error) {
	return nil, errUnsupported
}

// Enter is unreachable when Supported() is false.
func Enter(entry uintptr, st *x86.State, ctx *Ctx) {
	panic(errUnsupported)
}
