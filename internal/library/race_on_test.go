//go:build race

package library

// raceDetector reports a -race build: sync.Pool then drops a share of what
// it is given, so allocation ceilings that rely on pooled buffers are off.
const raceDetector = true
