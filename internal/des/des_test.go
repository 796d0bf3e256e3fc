package des

import (
	"math"
	"math/rand"
	"testing"
)

// run fires events until the queue is empty.
func run(e *Engine) {
	for e.Step() {
	}
}

// pending counts the queued timers that are not cancelled.
func pending(e *Engine) int {
	n := 0
	for _, t := range e.q {
		if !t.cancelled {
			n++
		}
	}
	return n
}

func TestScheduleAndRunOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	run(e)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order %v", order)
	}
	if e.Now() != 3 {
		t.Errorf("clock %v", e.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(5, func() { order = append(order, "a") })
	e.Schedule(5, func() { order = append(order, "b") })
	e.Schedule(5, func() { order = append(order, "c") })
	run(e)
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Errorf("tie order %v", order)
	}
}

func TestAfter(t *testing.T) {
	e := NewEngine()
	var fired float64 = -1
	e.Schedule(2, func() {
		e.After(3, func() { fired = e.Now() })
	})
	run(e)
	if fired != 5 {
		t.Errorf("After fired at %v", fired)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	timer := e.Schedule(1, func() { fired = true })
	timer.Cancel()
	run(e)
	if fired {
		t.Error("cancelled timer fired")
	}
	timer.Cancel() // double-cancel is fine
	if timer.at != 1 {
		t.Error("scheduled time")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	run(e)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	e.Schedule(math.NaN(), func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Errorf("fired %v", fired)
	}
	if e.Now() != 2.5 {
		t.Errorf("clock %v", e.Now())
	}
	if pending(e) != 2 {
		t.Errorf("pending %d", pending(e))
	}
	run(e)
	if len(fired) != 4 {
		t.Error("remaining events lost")
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(10)
	if e.Now() != 10 {
		t.Errorf("idle clock %v", e.Now())
	}
	// Deadline before now is a no-op.
	e.RunUntil(5)
	if e.Now() != 10 {
		t.Error("clock moved backwards")
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Error("step on empty queue")
	}
}

func TestPendingSkipsCancelled(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	a.Cancel()
	if pending(e) != 1 {
		t.Errorf("pending %d", pending(e))
	}
	run(e)
	if e.Now() != 2 {
		t.Error("cancelled head should be skipped")
	}
}

func TestCascadingEvents(t *testing.T) {
	// An event that schedules new events at the same time should keep FIFO
	// ordering among equal-time events.
	e := NewEngine()
	var order []int
	e.Schedule(1, func() {
		order = append(order, 1)
		e.Schedule(1, func() { order = append(order, 2) })
	})
	run(e)
	if len(order) != 2 || order[1] != 2 {
		t.Errorf("cascade order %v", order)
	}
}

// Property: events fire in non-decreasing time order regardless of the
// order they were scheduled in, including events scheduled from inside
// other events.
func TestPropertyEventOrdering(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []float64
		record := func() { fired = append(fired, e.Now()) }
		for i := 0; i < 50; i++ {
			at := rng.Float64() * 100
			e.Schedule(at, func() {
				record()
				// Cascade: schedule a follow-up in the future.
				if rng.Float64() < 0.3 {
					e.After(rng.Float64()*10, record)
				}
			})
		}
		run(e)
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				t.Fatalf("seed %d: time went backwards: %v -> %v", seed, fired[i-1], fired[i])
			}
		}
	}
}

// Churning Schedule/Cancel must not grow the queue with the number of
// cancellations: compaction keeps the heap proportional to the live
// timer count. This is the pattern the flow simulator produces — every
// rate change cancels and reschedules completion timers.
func TestCancelChurnBoundsHeap(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	var live []*Timer
	const rounds = 20000
	maxLen := 0
	for i := 0; i < rounds; i++ {
		live = append(live, e.After(1+rng.Float64()*100, func() {}))
		// Cancel-and-replace an existing timer most of the time, keeping
		// roughly a constant live population under heavy churn.
		for len(live) > 50 {
			j := rng.Intn(len(live))
			live[j].Cancel()
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if len(e.q) > maxLen {
			maxLen = len(e.q)
		}
		if e.nCancelled > len(e.q) {
			t.Fatalf("round %d: cancelled counter %d exceeds queue %d", i, e.nCancelled, len(e.q))
		}
	}
	// 50 live timers; the >50% cancelled trigger with the compactMinLen
	// floor bounds the queue at max(2*live, compactMinLen)+1 between
	// compactions.
	bound := 2*(len(live)+1) + compactMinLen
	if maxLen > bound {
		t.Fatalf("heap grew to %d (live %d, bound %d): compaction not keeping up", maxLen, len(live), bound)
	}
	if maxLen >= rounds/2 {
		t.Fatalf("heap length %d scales with churn count %d", maxLen, rounds)
	}
	if got := pending(e); got != len(e.q)-e.nCancelled {
		t.Fatalf("%d live timers disagree with len(q)-nCancelled %d", got, len(e.q)-e.nCancelled)
	}
	// The engine must still fire exactly the surviving timers, in order.
	n := 0
	for e.Step() {
		n++
	}
	if n != len(live) {
		t.Fatalf("fired %d events, want %d live", n, len(live))
	}
	if e.nCancelled != 0 || len(e.q) != 0 {
		t.Fatalf("drained engine left q=%d cancelled=%d", len(e.q), e.nCancelled)
	}
}

// Cancelling a timer that already fired (or was already discarded by a
// pop) must not corrupt the cancelled-entry counter.
func TestCancelAfterFireKeepsCounterSane(t *testing.T) {
	e := NewEngine()
	var fired *Timer
	fired = e.After(1, func() {})
	run(e)
	fired.Cancel() // after fire: index is -1, must not count
	fired.Cancel() // double cancel: no-op
	if e.nCancelled != 0 {
		t.Fatalf("nCancelled = %d after cancelling fired timer, want 0", e.nCancelled)
	}
	// A cancelled-then-popped timer decrements the counter exactly once.
	tm := e.After(1, func() {})
	tm.Cancel()
	tm.Cancel()
	if e.nCancelled != 1 {
		t.Fatalf("nCancelled = %d after double cancel, want 1", e.nCancelled)
	}
	if e.Step() {
		t.Fatal("cancelled timer fired")
	}
	if e.nCancelled != 0 {
		t.Fatalf("nCancelled = %d after drain, want 0", e.nCancelled)
	}
}
