// Package des provides a minimal deterministic discrete-event simulation
// engine: a virtual clock and a time-ordered event queue with cancellable
// timers. It is shared by the flow-level network simulator (the ns-2
// substitute) and the analytic α-β network executor.
//
// Determinism: ties in event time are broken by scheduling order, so a
// simulation driven by seeded randomness replays identically.
package des

import (
	"container/heap"
	"math"
)

// Timer is a handle to a scheduled event; Cancel prevents its callback
// from firing.
type Timer struct {
	at        float64
	seq       int64
	fn        func()
	cancelled bool
	index     int // heap index; -1 once popped
	eng       *Engine
}

// Cancel suppresses the timer's callback. Cancelling an already-fired or
// already-cancelled timer is a no-op. A cancelled timer stays in the
// engine's queue until it would fire or until the engine compacts the
// queue, whichever comes first.
func (t *Timer) Cancel() {
	if t.cancelled {
		return
	}
	t.cancelled = true
	if t.eng != nil && t.index >= 0 {
		t.eng.nCancelled++
		t.eng.maybeCompact()
	}
}

// Engine is a discrete-event scheduler with a virtual clock.
type Engine struct {
	now        float64
	seq        int64
	q          timerHeap
	nCancelled int // cancelled timers still sitting in q
}

// compactMinLen is the queue size below which compaction is not worth the
// rebuild; lazy pop-time draining handles small queues fine.
const compactMinLen = 64

// maybeCompact rebuilds the heap without its cancelled entries once they
// make up more than half of a non-trivial queue. Long background-traffic
// runs cancel and reschedule completion timers on every rate change, so
// without this the queue grows with the cancellation rate rather than
// with the number of live flows.
func (e *Engine) maybeCompact() {
	if len(e.q) < compactMinLen || 2*e.nCancelled <= len(e.q) {
		return
	}
	live := e.q[:0]
	for _, t := range e.q {
		if t.cancelled {
			t.index = -1
		} else {
			t.index = len(live)
			live = append(live, t)
		}
	}
	for i := len(live); i < len(e.q); i++ {
		e.q[i] = nil
	}
	e.q = live
	heap.Init(&e.q) // Swap refreshes every surviving index
	e.nCancelled = 0
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule registers fn to run at simulated time `at` and returns a
// cancellable handle. Scheduling in the past (at < Now) panics: it would
// silently corrupt causality.
func (e *Engine) Schedule(at float64, fn func()) *Timer {
	if at < e.now {
		panic("des: scheduling event in the past")
	}
	if math.IsNaN(at) {
		panic("des: scheduling event at NaN")
	}
	t := &Timer{at: at, seq: e.seq, fn: fn, eng: e}
	e.seq++
	heap.Push(&e.q, t)
	return t
}

// After schedules fn to run delay seconds from now.
func (e *Engine) After(delay float64, fn func()) *Timer {
	return e.Schedule(e.now+delay, fn)
}

// Step fires the earliest pending event. It reports false when the queue
// is empty (after draining any cancelled entries).
func (e *Engine) Step() bool {
	for e.q.Len() > 0 {
		t := heap.Pop(&e.q).(*Timer)
		if t.cancelled {
			e.nCancelled--
			continue
		}
		e.now = t.at
		t.fn()
		return true
	}
	return false
}

// RunUntil fires events with time <= deadline, then advances the clock to
// exactly the deadline (later events stay queued).
func (e *Engine) RunUntil(deadline float64) {
	for {
		t := e.peek()
		if t == nil || t.at > deadline {
			break
		}
		e.Step()
	}
	if deadline > e.now {
		e.now = deadline
	}
}

func (e *Engine) peek() *Timer {
	for e.q.Len() > 0 {
		t := e.q[0]
		if t.cancelled {
			heap.Pop(&e.q)
			e.nCancelled--
			continue
		}
		return t
	}
	return nil
}

// timerHeap orders by (time, sequence) for deterministic tie-breaking.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	//netlint:allow floatsafe exact inequality implements (time, seq) lexicographic order; At is validated finite when timers are scheduled
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*Timer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}
