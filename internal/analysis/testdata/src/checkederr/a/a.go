package a

import "errors"

var errDegraded = errors.New("degraded input")

// Local stand-ins for the repo's typed E-APIs: matching is by callee name
// plus an error-typed result, so the fixture needs no real imports.

func CostE(x float64) (elapsed, total float64, err error) {
	if x < 0 {
		return 0, 0, errDegraded
	}
	return x, x, nil
}

type Topo struct{}

func (Topo) AddLinkE(id int) error {
	if id < 0 {
		return errDegraded
	}
	return nil
}

func DecomposeMasked(n int) (int, error) { return n, nil }

func NewClosE(leaves int) (*Topo, error) {
	if leaves < 1 {
		return nil, errDegraded
	}
	return &Topo{}, nil
}

func NewFatTreeE(k int) (*Topo, error) {
	if k%2 != 0 {
		return nil, errDegraded
	}
	return &Topo{}, nil
}

// Failing constructs.

func badBlankErr(x float64) float64 {
	v, _, _ := CostE(x) // want `error from CostE discarded with _`
	return v
}

func badBlankOnlyErr(t Topo) {
	_ = t.AddLinkE(-1) // want `error from AddLinkE discarded with _`
}

func badDropped(t Topo) {
	t.AddLinkE(-1) // want `result of AddLinkE dropped`
}

func badBlankBuilder() *Topo {
	t, _ := NewClosE(0) // want `error from NewClosE discarded with _`
	return t
}

func badDroppedBuilder() {
	NewFatTreeE(3) // want `result of NewFatTreeE dropped`
}

func badDeadBlank(i int) {
	_ = i // want `dead blank assignment: _ = i has no effect`
}

// Fixed counterparts.

// Blanking the non-error result (total) is fine; the error is handled.
func goodPropagated(x float64) (float64, error) {
	v, _, err := CostE(x)
	if err != nil {
		return 0, err
	}
	return v, nil
}

func goodBuilder() (*Topo, error) {
	if _, err := NewClosE(2); err != nil {
		return nil, err
	}
	return NewFatTreeE(4)
}

func goodHandled(t Topo) (int, error) {
	if err := t.AddLinkE(1); err != nil {
		return 0, err
	}
	return DecomposeMasked(3)
}

func helper() (int, error) { return 1, nil }

// Only the named E-APIs are enforced; other calls keep Go's usual rules.
func goodOtherAPI() int {
	n, _ := helper()
	return n
}
