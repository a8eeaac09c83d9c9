//go:build !race

package library

const raceDetector = false
