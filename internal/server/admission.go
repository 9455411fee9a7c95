package server

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrServerBusy reports an admission-queue overflow: every execution slot is
// busy and the wait queue is at its bound. The wire layer surfaces it as
// MySQL error 1040.
var ErrServerBusy = errors.New("server: admission queue full")

// Gate is the statement admission controller: a fixed pool of execution
// slots plus a bounded wait queue. Overload queues callers — wall-clock
// backpressure only, no simulated time is charged for queueing — and past
// the queue bound admission fails fast instead of accumulating unbounded
// waiters. One slot is held for the duration of one statement execution,
// never across client think time, so a session blocked mid-transaction on
// its client holds locks but no slot.
type Gate struct {
	mu       sync.Mutex
	free     int             // idle slots
	waiters  []chan struct{} // FIFO of queued acquirers
	maxQueue int

	queued   atomic.Int64 // cumulative acquisitions that had to queue
	rejected atomic.Int64 // cumulative fast-fail rejections
}

// NewGate builds a gate with the given slot and queue bounds (defaults: 8
// slots, 16 queued).
func NewGate(slots, queue int) *Gate {
	if slots <= 0 {
		slots = 8
	}
	if queue <= 0 {
		queue = 16
	}
	return &Gate{free: slots, maxQueue: queue}
}

// Acquire takes an execution slot, blocking in the wait queue when every
// slot is busy. It reports whether the caller had to queue; when the queue
// is at its bound it fails immediately with ErrServerBusy. A queued caller
// leaves the queue in the same critical section that hands it a slot (see
// Release), so the queue bound counts exactly the callers still waiting:
// with at most slots+queue callers in flight, none is ever rejected.
func (g *Gate) Acquire() (bool, error) {
	g.mu.Lock()
	if g.free > 0 {
		g.free--
		g.mu.Unlock()
		return false, nil
	}
	if len(g.waiters) >= g.maxQueue {
		g.mu.Unlock()
		g.rejected.Add(1)
		return false, ErrServerBusy
	}
	ready := make(chan struct{})
	g.waiters = append(g.waiters, ready)
	g.mu.Unlock()
	g.queued.Add(1)
	<-ready
	return true, nil
}

// TryAcquire takes a slot only if one is free — the bench uses it to occupy
// the pool deterministically.
func (g *Gate) TryAcquire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.free == 0 {
		return false
	}
	g.free--
	return true
}

// Release returns a slot. When callers are queued the slot passes straight
// to the longest-queued one, which leaves the queue in the same critical
// section; otherwise it returns to the idle pool.
func (g *Gate) Release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.waiters) == 0 {
		g.free++
		return
	}
	close(g.waiters[0])
	n := copy(g.waiters, g.waiters[1:])
	g.waiters[n] = nil
	g.waiters = g.waiters[:n]
}

// Waiting reports the acquirers currently queued.
func (g *Gate) Waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiters)
}

// GateStats are cumulative admission counters.
type GateStats struct {
	// Queued counts acquisitions that found every slot busy and waited.
	Queued int64
	// Rejected counts acquisitions refused because the queue was full.
	Rejected int64
}

// Stats returns the cumulative admission counters.
func (g *Gate) Stats() GateStats {
	return GateStats{Queued: g.queued.Load(), Rejected: g.rejected.Load()}
}
