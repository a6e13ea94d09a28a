//go:build !race

package memcnn_test

const raceDetector = false
