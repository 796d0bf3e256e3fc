package serve

// Read views. Advice and status change only when a journaled mutation
// lands, so the owning shard goroutine encodes them once per state
// change into an immutable view and publishes it through an
// atomic.Pointer; GET status and /advise read the latest view without
// entering the shard queue. A view holds only values the shard never
// writes again: the status body is encoded at publish, and the
// core.Guidance matrices are replaced, never mutated, by later
// analyses. Advise bodies are memoized per view; a state change that
// leaves the Guidance equal carries the memo over, so repeated questions
// under unchanged guidance are answered from bytes already encoded.

import (
	"math"
	"sync"
	"sync/atomic"

	"netconstant/internal/core"
	"netconstant/internal/mpi"
)

// view is one tenant's published read state.
type view struct {
	id     string
	status []byte // encoded StatusResponse; nil if it could not be encoded
	g      core.Guidance
	memo   *adviseMemo
}

// adviseKey identifies an advise answer under one Guidance. The message
// size is part of the key because FNF weights depend on it.
type adviseKey struct {
	strategy core.Strategy // requested, after parsing
	root     int
	msgBits  uint64 // math.Float64bits(msg_bytes)
}

// adviseMemo holds a guidance's encoded advise bodies. It is bounded by
// a fixed entry count: past the bound answers are computed but not
// stored, so a key space wider than the bound costs planning time, not
// memory.
type adviseMemo struct {
	bound int

	mu     sync.Mutex
	bodies map[adviseKey][]byte
}

func newAdviseMemo(bound int) *adviseMemo {
	return &adviseMemo{bound: bound, bodies: map[adviseKey][]byte{}}
}

func (m *adviseMemo) get(k adviseKey) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	body, ok := m.bodies[k]
	return body, ok
}

func (m *adviseMemo) put(k adviseKey, body []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.bodies) < m.bound {
		m.bodies[k] = body
	}
}

// memoBound is the advise memo capacity for a tenant of n VMs.
func memoBound(n int) int { return 4 * n }

// advise answers an advise request from the view: validation first,
// then the memo, then a fresh plan that the memo keeps if it has room.
func (v *view) advise(req AdviseRequest) ([]byte, error) {
	requested, err := parseStrategy(req.Strategy)
	if err != nil {
		return nil, err
	}
	if req.Root < 0 || req.Root >= v.g.N {
		return nil, errf("root %d outside %d-VM cluster", req.Root, v.g.N)
	}
	if req.MsgBytes <= 0 || math.IsNaN(req.MsgBytes) {
		return nil, errf("msg_bytes must be a positive number, got %v", req.MsgBytes)
	}
	k := adviseKey{strategy: requested, root: req.Root, msgBits: math.Float64bits(req.MsgBytes)}
	if body, ok := v.memo.get(k); ok {
		return body, nil
	}
	body := encodeBody(adviseAnswer(v.id, v.g, requested, req.Root, req.MsgBytes))
	v.memo.put(k, body)
	return body, nil
}

// adviseAnswer plans a tree under the requested strategy and wraps it
// in the degraded-mode envelope. Degradation is an answer, not an
// error: when calibration health demotes the strategy down the
// RPCA→Heuristics→Baseline ladder (or no calibration exists yet), the
// response says so and carries the tree the surviving strategy builds.
func adviseAnswer(id string, g core.Guidance, requested core.Strategy, root int, msgBytes float64) AdviseResponse {
	effective := g.EffectiveStrategy(requested)
	tree := g.PlanTree(requested, root, msgBytes, nil, nil)
	exp := g.ExpectedTime(tree, mpi.Broadcast, msgBytes)
	if math.IsNaN(exp) {
		exp = 0 // no calibration yet — JSON has no NaN, and 0 is unambiguous with Degraded set
	}
	return AdviseResponse{
		Tenant:        id,
		Requested:     wireStrategy(requested),
		Effective:     wireStrategy(effective),
		Degraded:      effective != requested,
		Confidence:    g.Health.Confidence.String(),
		Effectiveness: core.GradeEffectiveness(g.NormE).String(),
		NormE:         g.NormE,
		Root:          root,
		Parent:        tree.Parent,
		Depth:         tree.Depth(),
		ExpectedSec:   exp,
	}
}

// publish encodes t's current state into a fresh view and makes it the
// one readers see. It runs on the owning shard goroutine (or during the
// startup scan, before that goroutine exists) after every state change
// and before the change is acknowledged, so a client always reads its
// own writes.
func (sh *shard) publish(t *tenant) *view {
	g := t.adv.Guidance()
	slot, _ := sh.views.LoadOrStore(t.id, new(atomic.Pointer[view]))
	p := slot.(*atomic.Pointer[view])
	var memo *adviseMemo
	if old := p.Load(); old != nil && old.g == g {
		memo = old.memo
	} else {
		memo = newAdviseMemo(memoBound(t.cfg.VMs))
	}
	v := &view{id: t.id, status: encodeBody(t.status()), g: g, memo: memo}
	p.Store(v)
	return v
}

// view returns the tenant's latest published view, or the typed
// not-found / quarantined refusal.
func (s *Server) view(id string) (*view, error) {
	if slot, ok := s.shardFor(id).views.Load(id); ok {
		if v := slot.(*atomic.Pointer[view]).Load(); v != nil {
			return v, nil
		}
	}
	return nil, s.absent(id)
}
