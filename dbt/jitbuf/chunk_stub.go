//go:build !linux || !amd64

package jitbuf

import "errors"

// Supported reports whether this platform can map executable code
// memory. On platforms without the mmap/mprotect path the native tier
// is compiled out and every block runs on the interpreter.
func Supported() bool { return false }

var errUnsupported = errors.New("jitbuf: executable code buffers unsupported on this platform")

type chunk struct{ mem []byte }

func errTooLarge(int) error { return errUnsupported }

func mapChunk(int) (chunk, error) { return chunk{}, errUnsupported }

func (c chunk) base() uintptr    { return 0 }
func (c chunk) protectRW() error { return errUnsupported }
func (c chunk) protectRX() error { return errUnsupported }
