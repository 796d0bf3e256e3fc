package rpca

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"netconstant/internal/cancel"
	"netconstant/internal/mat"
)

// streamStats is the solver's work counters, including the shared SVT
// route stats.
func streamStats(s *StreamingSolver) StreamStats {
	st := s.stats
	st.FullSVDs, st.TruncSVDs = s.solver.SVTStats()
	return st
}

// streamTrace builds a synthetic TP-matrix and returns it split as a seed
// prefix plus the remaining columns in arrival order — the streaming
// workload: every column shares the same planted constant subspace, with
// sparse spikes.
func streamTrace(seed int64, r, c, rank int, spikeFrac float64) (*mat.Dense, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	a := syntheticTP(rng, r, c, rank, spikeFrac)
	seedCols := c / 2
	pre := mat.NewDense(r, seedCols)
	for i := 0; i < r; i++ {
		copy(pre.Row(i), a.Row(i)[:seedCols])
	}
	var rest [][]float64
	for j := seedCols; j < c; j++ {
		col := make([]float64, r)
		for i := 0; i < r; i++ {
			col[i] = a.At(i, j)
		}
		rest = append(rest, col)
	}
	return pre, rest
}

// TestStreamingAgreesWithBatch is the differential-oracle acceptance test:
// after seeding, appending the rest of a 196-pair trace column-by-column
// and resolving, the streaming state must agree with a cold batch IALM on
// the identical matrix within 1e-10 relative error — with rows ≥ 16 so the
// warm truncated SVT route actually serves the resolves. The second case
// is the CI stream-oracle gate: a warm resolve every 16 columns and the
// oracle run every tail/6 columns as well as at the end, so agreement is
// checked along the whole trajectory, not only at its last column.
func TestStreamingAgreesWithBatch(t *testing.T) {
	cases := []struct {
		name         string
		seed         int64
		resolveEvery int
		checks       int // oracle checkpoints over the tail; 0 = end only
	}{
		{"end-only", 7, 0, 0},
		{"gate", 1, 16, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seedM, rest := streamTrace(tc.seed, 24, 196, 3, 0.05)
			s, err := NewStreamingSolver(24, StreamOptions{ResolveEvery: tc.resolveEvery})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Seed(seedM); err != nil {
				t.Fatal(err)
			}
			every := len(rest)
			if tc.checks > 0 {
				every = max(1, len(rest)/tc.checks)
			}
			verified := 0
			verify := func(at int) {
				ag, err := s.Verify()
				if err != nil {
					t.Fatal(err)
				}
				verified++
				// Negated comparisons so a NaN disagreement fails too.
				if !(ag.RelFroD <= 1e-10) || !(ag.RelFroE <= 1e-10) {
					t.Fatalf("column %d: streaming vs batch disagreement: D %.3e, E %.3e (want <= 1e-10)", at, ag.RelFroD, ag.RelFroE)
				}
				if !(ag.ConstantRel <= 1e-10) {
					t.Fatalf("column %d: constant-row disagreement %.3e (want <= 1e-10)", at, ag.ConstantRel)
				}
			}
			for k, col := range rest {
				if err := s.AppendColumn(col); err != nil {
					t.Fatal(err)
				}
				if done := k + 1; done%every == 0 && done != len(rest) {
					verify(done)
				}
			}
			verify(len(rest))
			if want := tc.checks + 1; tc.checks > 0 && verified != want {
				t.Fatalf("ran the oracle %d times, want %d", verified, want)
			}
			st := streamStats(s)
			if st.TruncSVDs == 0 {
				t.Fatal("warm truncated SVT route never engaged — streaming ran cold")
			}
			if st.Columns != 196 {
				t.Fatalf("columns = %d, want 196", st.Columns)
			}
		})
	}
}

// TestStreamingByteIdenticalWhenTruncatedDisabled pins the strongest form
// of agreement: with rows below the truncated-SVT gate the warm subspace
// cannot change any route decision, so the streaming resolve and the cold
// batch solve must be byte-identical.
func TestStreamingByteIdenticalWhenTruncatedDisabled(t *testing.T) {
	seedM, rest := streamTrace(11, 10, 64, 2, 0.05)
	s, err := NewStreamingSolver(10, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(seedM); err != nil {
		t.Fatal(err)
	}
	for _, col := range rest {
		if err := s.AppendColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Resolve(); err != nil {
		t.Fatal(err)
	}
	batch, err := NewSolver().DecomposeIALM(s.matrixView().Clone(), IALMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sd, bd := s.last.D.Data(), batch.D.Data()
	for i := range sd {
		if math.Float64bits(sd[i]) != math.Float64bits(bd[i]) {
			t.Fatalf("D[%d] differs bitwise: %v vs %v", i, sd[i], bd[i])
		}
	}
}

// TestStreamingDeterminism: two identical streaming runs must produce
// bit-identical constants, agreement numbers and counters.
func TestStreamingDeterminism(t *testing.T) {
	run := func() ([]float64, StreamStats) {
		seedM, rest := streamTrace(13, 24, 128, 3, 0.05)
		s, err := NewStreamingSolver(24, StreamOptions{ResolveEvery: 24})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Seed(seedM); err != nil {
			t.Fatal(err)
		}
		for _, col := range rest {
			if err := s.AppendColumn(col); err != nil {
				t.Fatal(err)
			}
		}
		return s.Constant(), streamStats(s)
	}
	c1, st1 := run()
	c2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	for j := range c1 {
		if math.Float64bits(c1[j]) != math.Float64bits(c2[j]) {
			t.Fatalf("constant[%d] differs bitwise across identical runs", j)
		}
	}
}

// TestStreamingFastTierTracksConstant: between resolves the projection
// estimates for fresh columns must already sit near the planted constant
// (the raw column medians would too, but the projection must not be worse).
func TestStreamingFastTierTracksConstant(t *testing.T) {
	seedM, rest := streamTrace(17, 24, 196, 1, 0.03)
	s, err := NewStreamingSolver(24, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(seedM); err != nil {
		t.Fatal(err)
	}
	for _, col := range rest {
		if err := s.AppendColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	// No resolve since seeding: columns past the seed width carry
	// fast-tier estimates. Batch-decompose the full matrix as the oracle.
	batch, err := NewSolver().DecomposeIALM(s.matrixView().Clone(), IALMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := ConstantRow(batch.D, ExtractMedian)
	got := s.Constant()
	tail := RelDiff(got[98:], oracle[98:])
	if tail > 0.05 {
		t.Fatalf("fast-tier constant estimates off by %.3f relative (want <= 0.05)", tail)
	}
	if rel := s.RelNormE(); rel < 0 || rel > 1 {
		t.Fatalf("RelNormE out of range: %v", rel)
	}
}

// TestStreamingResolveCadence: ResolveEvery must trigger authoritative
// resolves at the configured cadence.
func TestStreamingResolveCadence(t *testing.T) {
	seedM, rest := streamTrace(19, 12, 64, 2, 0.05)
	s, err := NewStreamingSolver(12, StreamOptions{ResolveEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(seedM); err != nil {
		t.Fatal(err)
	}
	for _, col := range rest {
		if err := s.AppendColumn(col); err != nil {
			t.Fatal(err)
		}
	}
	st := streamStats(s)
	want := 1 + len(rest)/8 // seed resolve + one per 8 appended columns
	if st.Resolves != want {
		t.Fatalf("resolves = %d, want %d", st.Resolves, want)
	}
}

// TestStreamingReplaceColumn: a re-measured pair must refresh both the
// stored column and its constant estimate.
func TestStreamingReplaceColumn(t *testing.T) {
	seedM, _ := streamTrace(23, 12, 64, 2, 0)
	s, err := NewStreamingSolver(12, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Seed(seedM); err != nil {
		t.Fatal(err)
	}
	col := make([]float64, 12)
	for i := range col {
		col[i] = 42
	}
	if err := s.ReplaceColumn(3, col); err != nil {
		t.Fatal(err)
	}
	if got := s.Constant()[3]; math.Abs(got-42) > 1 {
		t.Fatalf("replaced column constant = %v, want ~42", got)
	}
	if err := s.ReplaceColumn(99, col); err == nil {
		t.Fatal("out-of-range replace did not error")
	}
	if err := s.ReplaceColumn(0, col[:5]); err == nil {
		t.Fatal("short column did not error")
	}
}

// TestStreamingCancellation: a cancelled context must abort appends and
// seeding with the typed cancellation error.
func TestStreamingCancellation(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	s, err := NewStreamingSolver(12, StreamOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, 12)
	if err := s.AppendColumn(col); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("AppendColumn err = %v, want cancellation", err)
	}
	seedM, _ := streamTrace(29, 12, 32, 2, 0)
	if err := s.Seed(seedM); !errors.Is(err, cancel.ErrCanceled) {
		t.Fatalf("Seed err = %v, want cancellation", err)
	}
	if s.ncols != 0 {
		t.Fatalf("cancelled appends still ingested %d columns", s.ncols)
	}
}

// TestStreamingRejectsBadInput: NaN/Inf measurement columns and shape
// mismatches must be rejected before touching state.
func TestStreamingRejectsBadInput(t *testing.T) {
	s, err := NewStreamingSolver(8, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]float64, 8)
	bad[3] = math.NaN()
	if err := s.AppendColumn(bad); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN column err = %v, want ErrNonFinite", err)
	}
	if err := s.AppendColumn(make([]float64, 5)); err == nil {
		t.Fatal("short column did not error")
	}
	if s.ncols != 0 {
		t.Fatal("rejected columns were ingested")
	}
	if _, err := s.Resolve(); err == nil {
		t.Fatal("empty resolve did not error")
	}
	if _, err := NewStreamingSolver(0, StreamOptions{}); err == nil {
		t.Fatal("rows=0 did not error")
	}
}
