package runtime

import (
	"fmt"
	"runtime/debug"
)

// Health is the state of one serving replica in the failover state machine:
//
//	Healthy ──(retries exhausted on a sub-batch)──▶ Unhealthy
//	Unhealthy ──(background probe succeeds)──▶ Healthy
//
// An Unhealthy replica receives no traffic — the group re-derives its batch
// split over the Healthy replicas — but keeps being probed in the background,
// so a replica that only suffered transient faults is re-admitted while a
// permanently dead one stays out.
type Health int32

// The health states.
const (
	Healthy Health = iota
	Unhealthy
)

// String names the health state.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Unhealthy:
		return "unhealthy"
	default:
		return fmt.Sprintf("Health(%d)", int32(h))
	}
}

// FaultStats aggregates the fault-tolerance counters of a serving engine:
// how often sub-batches were retried, how many replicas were failed over
// (marked unhealthy) and later re-admitted, and how many are unhealthy right
// now.  replica.Group implements FaultReporter; the batching server folds the
// snapshot into ServerStats so /stats surfaces the fleet's health.
type FaultStats struct {
	// Retries counts sub-batch re-executions after a transient failure
	// (successful or not).
	Retries uint64 `json:"retries"`
	// Failovers counts replicas marked unhealthy after exhausting their
	// retries.
	Failovers uint64 `json:"failovers"`
	// Readmissions counts unhealthy replicas restored by a successful
	// background probe.
	Readmissions uint64 `json:"readmissions"`
	// Panics counts panics recovered into errors inside the engine.
	Panics uint64 `json:"panics"`
	// UnhealthyReplicas is the number of replicas currently out of rotation.
	UnhealthyReplicas int `json:"unhealthy_replicas"`
}

// FaultReporter is implemented by runners that track fault-tolerance
// counters; the batching server queries it for ServerStats.
type FaultReporter interface {
	FaultStats() FaultStats
}

// PanicError is a panic recovered into an error by the crash-containment
// layer: a panicking op, stage or sub-batch fails its request — never the
// process.  The original panic value and stack are preserved for logs.
type PanicError struct {
	// Op names where the panic was contained ("executor", "pipeline stage 2").
	Op string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runtime: panic in %s: %v", e.Op, e.Value)
}

// containPanic recovers a pending panic into *errp as a *PanicError; use it
// as a deferred call in any goroutine that must not take the process down.
// An error already in *errp is preserved unless a panic is actually pending.
func containPanic(op string, errp *error) {
	if r := recover(); r != nil {
		*errp = &PanicError{Op: op, Value: r, Stack: debug.Stack()}
	}
}
