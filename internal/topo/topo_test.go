package topo

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddNodesAndLinks(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Switch, 0)
	id := mustLink(t, g, a, b, 100, 0.001)
	if g.NumNodes() != 2 || g.NumLinks() != 1 {
		t.Fatal("counts")
	}
	l := g.Link(id)
	if l.A != a || l.B != b || l.Capacity != 100 || l.Latency != 0.001 {
		t.Error("link metadata")
	}
	if g.Node(a).Kind != Server || g.Node(b).Kind != Switch {
		t.Error("node kinds")
	}
}

// TestAddLinkPanics: malformed links are refused with a typed error and
// leave the topology unchanged.
func TestAddLinkPanics(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Server, 0)
	if _, err := g.AddLinkE(a, 99, 1, 0); !errors.Is(err, ErrNodeRange) {
		t.Errorf("out-of-range err = %v", err)
	}
	if _, err := g.AddLinkE(a, a, 1, 0); !errors.Is(err, ErrSelfLink) {
		t.Errorf("self-link err = %v", err)
	}
	if _, err := g.AddLinkE(a, b, 0, 0); !errors.Is(err, ErrBadCapacity) {
		t.Errorf("capacity err = %v", err)
	}
	if g.NumLinks() != 0 {
		t.Errorf("refused links were added: %d", g.NumLinks())
	}
}

// mustLink adds a link the test knows is valid.
func mustLink(t *testing.T, g *Topology, a, b int, capacity, latency float64) LinkID {
	t.Helper()
	id, err := g.AddLinkE(a, b, capacity, latency)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// mustRoute routes a pair the test knows has a unique shortest path.
func mustRoute(t *testing.T, g *Topology, a, b int) []LinkID {
	t.Helper()
	path, err := g.RouteE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRouteSameNode(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	if mustRoute(t, g, a, a) != nil {
		t.Error("route to self should be nil")
	}
}

func TestRouteNoPath(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Server, 1)
	if _, err := g.RouteE(a, b); !errors.Is(err, ErrNoPath) {
		t.Errorf("disconnected err = %v", err)
	}
	if _, err := g.RouteE(-1, a); !errors.Is(err, ErrNodeRange) {
		t.Errorf("range err = %v", err)
	}
}

func TestTreeDefaults(t *testing.T) {
	tr := NewTree(TreeConfig{})
	// 1 core + 32 rack switches + 1024 servers.
	if tr.NumNodes() != 1+32+1024 {
		t.Fatalf("nodes %d", tr.NumNodes())
	}
	if len(tr.Servers()) != 1024 {
		t.Fatalf("servers %d", len(tr.Servers()))
	}
	// 32 uplinks + 1024 server links.
	if tr.NumLinks() != 32+1024 {
		t.Fatalf("links %d", tr.NumLinks())
	}
}

func TestTreeRouting(t *testing.T) {
	tr := NewTree(TreeConfig{Racks: 2, ServersPerRack: 2, IntraRackBps: 100, InterRackBps: 1000, HopLatency: 0.01})
	srv := tr.Servers()
	// Same-rack path: server -> rack switch -> server = 2 links.
	p := mustRoute(t, tr, srv[0], srv[1])
	if len(p) != 2 {
		t.Errorf("same-rack path length %d", len(p))
	}
	if !tr.SameRack(srv[0], srv[1]) {
		t.Error("same rack")
	}
	// Cross-rack: server -> rack -> core -> rack -> server = 4 links.
	p2 := mustRoute(t, tr, srv[0], srv[2])
	if len(p2) != 4 {
		t.Errorf("cross-rack path length %d", len(p2))
	}
	if tr.SameRack(srv[0], srv[2]) {
		t.Error("cross rack")
	}
	// Latency: 4 hops × 0.01.
	if got := tr.PathLatency(p2); got != 0.04 {
		t.Errorf("path latency %v", got)
	}
	// Bottleneck: server links are 100.
	if got := tr.BottleneckCapacity(p2); got != 100 {
		t.Errorf("bottleneck %v", got)
	}
	if tr.BottleneckCapacity(nil) < 1e300 {
		t.Error("empty path bottleneck should be huge")
	}
}

func TestRoutePathValidity(t *testing.T) {
	// Every consecutive pair of links on a route must share a node and the
	// route must start at src and end at dst.
	tr := NewTree(TreeConfig{Racks: 4, ServersPerRack: 4})
	srv := tr.Servers()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := srv[rng.Intn(len(srv))]
		b := srv[rng.Intn(len(srv))]
		if a == b {
			return true
		}
		path, err := tr.RouteE(a, b)
		if err != nil {
			return false
		}
		cur := a
		for _, id := range path {
			l := tr.Link(id)
			switch cur {
			case l.A:
				cur = l.B
			case l.B:
				cur = l.A
			default:
				return false
			}
		}
		return cur == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFatTree(t *testing.T) {
	ft, err := NewFatTreeE(FatTreeConfig{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// k=4: 16 servers, 4 cores, 8 agg, 8 edge.
	if len(ft.Servers()) != 16 {
		t.Fatalf("servers %d", len(ft.Servers()))
	}
	srv := ft.Servers()
	// Cross-pod pairs have (k/2)² equal-cost shortest paths; the
	// single-route API must refuse them with the typed error instead of
	// silently picking one.
	if _, err := ft.RouteE(srv[0], srv[15]); !errors.Is(err, ErrMultiPath) {
		t.Errorf("cross-pod route err = %v, want ErrMultiPath", err)
	}
	// Same-edge servers: a unique 2-hop path.
	if got := len(mustRoute(t, ft, srv[0], srv[1])); got != 2 {
		t.Errorf("same-edge path %d", got)
	}
	for _, k := range []int{3, 0, 5} {
		if _, err := NewFatTreeE(FatTreeConfig{K: k}); !errors.Is(err, ErrBadShape) {
			t.Errorf("arity %d err = %v, want ErrBadShape", k, err)
		}
	}
	if _, err := NewFatTreeE(FatTreeConfig{K: 4, HopLatency: -1}); !errors.Is(err, ErrBadLatency) {
		t.Errorf("negative latency err = %v, want ErrBadLatency", err)
	}
}

func TestTreeRackAssignment(t *testing.T) {
	tr := NewTree(TreeConfig{Racks: 3, ServersPerRack: 2})
	counts := map[int]int{}
	for _, s := range tr.Servers() {
		counts[tr.Node(s).Rack]++
	}
	for r := 0; r < 3; r++ {
		if counts[r] != 2 {
			t.Errorf("rack %d has %d servers", r, counts[r])
		}
	}
}

func TestAddLinkETypedErrors(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Server, 0)
	if _, err := g.AddLinkE(a, 99, 100, 0.001); !errors.Is(err, ErrNodeRange) {
		t.Errorf("out-of-range err = %v", err)
	}
	if _, err := g.AddLinkE(a, a, 100, 0.001); !errors.Is(err, ErrSelfLink) {
		t.Errorf("self-link err = %v", err)
	}
	for _, c := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := g.AddLinkE(a, b, c, 0.001); !errors.Is(err, ErrBadCapacity) {
			t.Errorf("capacity %v err = %v", c, err)
		}
	}
	for _, l := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := g.AddLinkE(a, b, 100, l); !errors.Is(err, ErrBadLatency) {
			t.Errorf("latency %v err = %v", l, err)
		}
	}
	if g.NumLinks() != 0 {
		t.Errorf("refused links were added: %d", g.NumLinks())
	}
	if _, err := g.AddLinkE(a, b, 100, 0); err != nil {
		t.Errorf("valid zero-latency link err = %v", err)
	}
}

func TestRouteETypedErrors(t *testing.T) {
	g := New()
	a := g.AddNode(Server, 0)
	b := g.AddNode(Server, 0)
	c := g.AddNode(Server, 1)
	mustLink(t, g, a, b, 100, 0.001)

	if path, err := g.RouteE(a, a); err != nil || path != nil {
		t.Errorf("self route: %v %v", path, err)
	}
	if _, err := g.RouteE(a, 42); !errors.Is(err, ErrNodeRange) {
		t.Errorf("range err = %v", err)
	}
	if _, err := g.RouteE(a, c); !errors.Is(err, ErrNoPath) {
		t.Errorf("disconnected err = %v", err)
	}
	path, err := g.RouteE(a, b)
	if err != nil || len(path) != 1 {
		t.Errorf("connected route: %v %v", path, err)
	}
}
