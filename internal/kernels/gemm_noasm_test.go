//go:build !amd64 || purego

package kernels

import "testing"

// gemmBodies lists the micro-kernel bodies this build has: the portable one.
var gemmBodies = []gemmBody{{name: "go"}}

// use selects the body: the one there is.
func (gemmBody) use(testing.TB) {}
