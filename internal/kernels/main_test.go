package kernels

import (
	"fmt"
	"math"
	"os"
	"testing"
)

// TestMain runs the package's tests, then fails the run if they left
// gemmZeroRow, the padding row every in-place table shares, anything but
// all-zero bits.
func TestMain(m *testing.M) {
	code := m.Run()
	for i, v := range gemmZeroRow {
		if math.Float32bits(v) != 0 {
			fmt.Fprintf(os.Stderr, "FAIL: gemmZeroRow[%d] = %v after the tests, want +0\n", i, v)
			code = 1
		}
	}
	os.Exit(code)
}
