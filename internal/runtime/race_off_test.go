//go:build !race

package runtime_test

const raceDetector = false
