package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"memcnn/internal/tensor"
)

// ErrFaultInjected marks a transient device error injected by a FaultDevice:
// the op did not execute, but the device remains usable and a retry may
// succeed.  Schedulers treat it like any other op failure; tests match it
// with errors.Is to tell injected faults from genuine ones.
var ErrFaultInjected = errors.New("runtime: injected transient device fault")

// ErrDeviceDead marks a permanently failed device: every RunOp after the
// death point fails with it, so retries against the same device cannot
// succeed and callers must fail over to another replica.
var ErrDeviceDead = errors.New("runtime: device dead")

// FaultConfig is the deterministic failure schedule a FaultDevice injects.
// All probabilistic faults are drawn from a counter-keyed hash of Seed, so
// two devices with the same config fault at the same op ordinals regardless
// of goroutine interleaving — the property that makes chaos tests assertable:
// the number of injected faults over a known op count is a pure function of
// the schedule.
type FaultConfig struct {
	// Seed keys the deterministic fault draws.  Two FaultDevices with equal
	// Seed and rates inject faults at identical op ordinals.
	Seed uint64
	// TransientRate is the probability (0..1) that an op fails with
	// ErrFaultInjected instead of executing.
	TransientRate float64
	// StallRate is the probability (0..1) that an op sleeps for Stall before
	// executing — the slow-device failure mode deadlines exist for.
	StallRate float64
	// Stall is the injected latency of a stalled op.  Default 1ms when a
	// StallRate is set.
	Stall time.Duration
	// PanicRate is the probability (0..1) that an op panics instead of
	// executing — the failure mode crash containment exists for.  The
	// executor recovers it into a *PanicError; the process must survive.
	PanicRate float64
	// KillAfterOps, when positive, permanently kills the device the moment
	// its op counter reaches this ordinal: that op and every later one fail
	// with ErrDeviceDead.  Zero never kills.
	KillAfterOps int64
}

// FaultDevice wraps any Device with a deterministic seeded fault schedule —
// transient RunOp errors, latency stalls, injected panics and permanent
// device death — so every failure mode of the serving stack is reproducible
// in CI.  It is safe for concurrent use, like the Device it wraps.
type FaultDevice struct {
	dev Device
	cfg FaultConfig

	ops  atomic.Int64
	dead atomic.Bool

	transients atomic.Uint64
	stalls     atomic.Uint64
	panics     atomic.Uint64
	deadOps    atomic.Uint64
}

// WrapFault wraps a device with a fault schedule.
func WrapFault(dev Device, cfg FaultConfig) *FaultDevice {
	if cfg.StallRate > 0 && cfg.Stall <= 0 {
		cfg.Stall = time.Millisecond
	}
	return &FaultDevice{dev: dev, cfg: cfg}
}

// Name implements Device.
func (d *FaultDevice) Name() string {
	return fmt.Sprintf("faulty(%s)", d.dev.Name())
}

// Dead reports whether the device has died (by schedule or Kill).
func (d *FaultDevice) Dead() bool { return d.dead.Load() }

// Kill permanently fails the device, as if its KillAfterOps ordinal had been
// reached.  Every subsequent RunOp returns ErrDeviceDead.
func (d *FaultDevice) Kill() { d.dead.Store(true) }

// Revive clears a death (scheduled or explicit), re-admitting the device.
// Ops injected by rate schedules keep drawing from the same counter.
func (d *FaultDevice) Revive() { d.dead.Store(false) }

// FaultCounts reports the faults injected so far: transient errors, stalls,
// panics, and ops rejected because the device was dead.
func (d *FaultDevice) FaultCounts() (transients, stalls, panics, deadOps uint64) {
	return d.transients.Load(), d.stalls.Load(), d.panics.Load(), d.deadOps.Load()
}

// splitmix64 is the counter-keyed hash behind the deterministic draws: a
// bijective avalanche mixer, so consecutive counters produce uncorrelated
// 64-bit words.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a uniform value in [0,1) for the lane-th decision of op
// ordinal n.  Separate lanes keep the transient/stall/panic decisions of one
// op independent.
func (d *FaultDevice) draw(n int64, lane uint64) float64 {
	h := splitmix64(d.cfg.Seed ^ splitmix64(uint64(n)*3+lane))
	return float64(h>>11) / float64(1<<53)
}

// RunOp implements Device: the op is admitted to the fault schedule, then
// either faulted (dead, transient error, panic) or executed on the wrapped
// device, possibly after an injected stall.
func (d *FaultDevice) RunOp(prog *Program, opIndex int, in, out, aux *tensor.Tensor, scratch []float32) (float64, error) {
	n := d.ops.Add(1)
	if d.cfg.KillAfterOps > 0 && n == d.cfg.KillAfterOps {
		d.dead.Store(true)
	}
	if d.dead.Load() {
		d.deadOps.Add(1)
		return 0, fmt.Errorf("%s op %d: %w", d.Name(), n, ErrDeviceDead)
	}
	if d.cfg.PanicRate > 0 && d.draw(n, 2) < d.cfg.PanicRate {
		d.panics.Add(1)
		panic(fmt.Sprintf("%s: injected panic at op %d", d.Name(), n))
	}
	if d.cfg.TransientRate > 0 && d.draw(n, 0) < d.cfg.TransientRate {
		d.transients.Add(1)
		return 0, fmt.Errorf("%s op %d: %w", d.Name(), n, ErrFaultInjected)
	}
	if d.cfg.StallRate > 0 && d.draw(n, 1) < d.cfg.StallRate {
		d.stalls.Add(1)
		time.Sleep(d.cfg.Stall)
	}
	return d.dev.RunOp(prog, opIndex, in, out, aux, scratch)
}
