package mapping

import "errors"

// Sentinel errors for the fallible mapping APIs (GreedyMapE, CostE,
// ValidatePermutation). Test for them with errors.Is.
var (
	// ErrGraphMismatch: the task and machine graphs have different orders.
	ErrGraphMismatch = errors.New("mapping: graph order mismatch")
	// ErrBadAssignment: an assignment is the wrong length, names a machine
	// out of range, or is not a permutation.
	ErrBadAssignment = errors.New("mapping: bad assignment")
)
