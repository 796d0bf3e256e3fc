package main

// Workload generation. The request schedule of every phase and each
// request's body are a pure function of the seed; the tenant set is
// fixed. The daemon sees only the generated requests.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// Request kinds. Reads leave tenant state alone; every other kind is a
// journaled mutation.
const (
	kAdvise      = "advise"
	kStatus      = "status"
	kCalibrate   = "calibrate"
	kObserve     = "observe"         // small divergence, never triggers maintenance
	kTrigger     = "observe-trigger" // crosses the threshold, recalibrates
	kAdvance     = "advance"
	kStreamBegin = "stream-begin"
	kStreamPair  = "stream-pair"
	kResolve     = "resolve"
)

// isRead reports whether kind leaves tenant state unchanged.
func isRead(kind string) bool { return kind == kAdvise || kind == kStatus }

// isSmallWrite reports whether kind is one of the small journaled
// mutations write_p50_ms/write_p99_ms are defined over.
func isSmallWrite(kind string) bool {
	return kind == kObserve || kind == kAdvance || kind == kStreamPair
}

// tenantSpec is one tenant of the benchmark: eight tenants of 16, 32 and
// 64 VMs; tenants sharing a Twin index share their whole config, so
// their calibration traces hit the daemon's shared memo.
type tenantSpec struct {
	ID   string
	VMs  int
	Seed int64
}

// twinPlan lists each tenant's size and the config it shares: three twin
// pairs (16, 32 and 64 VMs) and two singles.
var twinPlan = []struct{ vms, config int }{
	{16, 0}, {16, 0}, {32, 1}, {32, 1}, {64, 2}, {64, 2}, {16, 3}, {32, 4},
}

// Tenant roles in calibrate-mix, by index into twinPlan: whom the phase
// calibrates, whose observes cross the threshold, and which tenants hold
// a streaming session. The roles are disjoint, so a calibration never
// ends a session a later stream-pair needs.
var (
	calibrateRoles = []int{0, 2, 4, 6} // 16, 32, 64, 16 VMs
	triggerRoles   = []int{1, 7}       // 16, 32 VMs
	streamRoles    = []int{3, 5}       // 32, 64 VMs
)

// configSeeds seed each tenant config's provider, provisioning and
// measurement streams. They are fixed rather than drawn from the workload
// seed: RPCA's iteration count, and with it the cost of set-up, restart
// and every calibration, depends on the config (with seeded configs,
// set-up ranged 1.1–1.7 s and restart 2.8–4.7 s over ten seeds on a
// 2-core machine), which would swamp the benchmark's bounds. The
// workload seed varies the traffic.
var configSeeds = []int64{101, 202, 303, 404, 505}

// tenants returns the benchmark's tenant set.
func tenants() []tenantSpec {
	cfgSeeds := configSeeds
	out := make([]tenantSpec, len(twinPlan))
	for i, p := range twinPlan {
		out[i] = tenantSpec{ID: fmt.Sprintf("t%d-%dvm", i, p.vms), VMs: p.vms, Seed: cfgSeeds[p.config]}
	}
	return out
}

// createBody is the PUT body that declares a tenant.
func (t tenantSpec) createBody() []byte {
	b, _ := json.Marshal(map[string]any{"vms": t.VMs, "seed": t.Seed}) // a map of ints cannot fail to encode
	return b
}

// adviseKey is one point of the advise key space. The space is small —
// four strategies, four roots, three message sizes per tenant — so
// requests repeat, which is the property any advice cache relies on.
type adviseKey struct {
	Strategy string
	Root     int
	MsgBytes float64
}

var (
	keyStrategies = []string{"rpca", "heuristics", "baseline", "topology"}
	keyRoots      = []int{0, 1, 2, 3}
	keyMsgBytes   = []float64{64 << 10, 1 << 20, 8 << 20}
)

func (k adviseKey) id() int {
	si := 0
	for i, s := range keyStrategies {
		if s == k.Strategy {
			si = i
		}
	}
	mi := 0
	for i, m := range keyMsgBytes {
		if int64(m) == int64(k.MsgBytes) {
			mi = i
		}
	}
	return (si*len(keyRoots)+k.Root)*len(keyMsgBytes) + mi
}

// request is one scheduled HTTP request.
type request struct {
	At     time.Duration // intended send time from the phase start
	Kind   string
	Tenant int
	Key    int    // advise key id; -1 for other kinds
	Body   []byte // nil for bodiless requests
	Lane   int    // connection index
}

// schedule is an ordered list of requests per lane.
type schedule struct {
	Lanes [][]request
}

func (s schedule) total() int {
	n := 0
	for _, l := range s.Lanes {
		n += len(l)
	}
	return n
}

func drawKey(rng *rand.Rand) adviseKey {
	return adviseKey{
		Strategy: keyStrategies[rng.IntN(len(keyStrategies))],
		Root:     keyRoots[rng.IntN(len(keyRoots))],
		MsgBytes: keyMsgBytes[rng.IntN(len(keyMsgBytes))],
	}
}

// readRequest draws one read: an /advise on a random tenant, or with
// probability 0.1 a status GET.
func readRequest(rng *rand.Rand, nTenants int) request {
	t := rng.IntN(nTenants)
	if rng.Float64() < 0.1 {
		return request{Kind: kStatus, Tenant: t, Key: -1}
	}
	k := drawKey(rng)
	body, _ := json.Marshal(map[string]any{"strategy": k.Strategy, "root": k.Root, "msg_bytes": k.MsgBytes}) // fixed scalar map
	return request{Kind: kAdvise, Tenant: t, Key: k.id(), Body: body}
}

// readSchedule spreads reads at a constant offered rate over dur,
// round-robin across lanes, so each lane sends every lanes/rate seconds.
func readSchedule(rng *rand.Rand, rate float64, dur time.Duration, lanes, laneBase, nTenants int) schedule {
	n := int(rate * dur.Seconds())
	s := schedule{Lanes: make([][]request, lanes)}
	for i := 0; i < n; i++ {
		r := readRequest(rng, nTenants)
		r.At = time.Duration(math.Round(float64(i) / rate * float64(time.Second)))
		r.Lane = laneBase + i%lanes
		s.Lanes[i%lanes] = append(s.Lanes[i%lanes], r)
	}
	return s
}

// mixPlan sizes the calibrate-mix write lane per 10 s of phase: the
// calibrate-heavy part (four calibrations and two threshold-crossing
// observes, about 1.5 s of solver work on the reference machine) keeps
// the lane well under half busy, so no backlog grows.
type mixPlan struct {
	SmallWritesPerSec float64
	ReadRate          float64
}

var defaultMix = mixPlan{SmallWritesPerSec: 40, ReadRate: 400}

// mixSchedule builds calibrate-mix: lane 0 carries mutations, lane 1
// reads. The multiset of heavy writes is fixed per 10 s of phase; the
// seed chooses their order, their times and every small write.
func mixSchedule(rng *rand.Rand, ts []tenantSpec, dur time.Duration, plan mixPlan) schedule {
	rounds := max(1, int(dur.Seconds()/10+0.5))
	var writes []request
	add := func(at time.Duration, kind string, t int, body []byte) {
		writes = append(writes, request{At: at, Kind: kind, Tenant: t, Key: -1, Body: body})
	}
	// Streaming sessions open first and resolve at the end of each round.
	for _, t := range streamRoles {
		add(0, kStreamBegin, t, nil)
	}
	roundDur := dur / time.Duration(rounds)
	for r := 0; r < rounds; r++ {
		base := time.Duration(r) * roundDur
		heavy := append(append([]int(nil), calibrateRoles...), triggerRoles...)
		rng.Shuffle(len(heavy), func(i, j int) { heavy[i], heavy[j] = heavy[j], heavy[i] })
		slot := roundDur / time.Duration(len(heavy)+1)
		for i, t := range heavy {
			jitter := time.Duration(rng.Float64() * float64(slot) / 2)
			at := base + slot*time.Duration(i+1) - slot/4 + jitter
			if contains(triggerRoles, t) {
				add(at, kTrigger, t, []byte(`{"expected":1,"actual":2.5}`))
			} else {
				add(at, kCalibrate, t, nil)
			}
		}
		for i, t := range streamRoles {
			add(base+roundDur*time.Duration(8+i)/10, kResolve, t, nil)
		}
	}
	nSmall := int(plan.SmallWritesPerSec * dur.Seconds())
	for i := 0; i < nSmall; i++ {
		at := time.Duration((float64(i) + 0.5) / plan.SmallWritesPerSec * float64(time.Second))
		switch u := rng.Float64(); {
		case u < 0.4:
			t := rng.IntN(len(ts))
			rel := 1 + 0.04*(rng.Float64()-0.5)
			add(at, kObserve, t, []byte(fmt.Sprintf(`{"expected":1,"actual":%.6f}`, rel)))
		case u < 0.7:
			t := rng.IntN(len(ts))
			add(at, kAdvance, t, []byte(fmt.Sprintf(`{"dt":%.3f}`, 1+rng.Float64()*59)))
		default:
			t := streamRoles[rng.IntN(len(streamRoles))]
			add(at, kStreamPair, t, streamPairBody(rng, ts[t].VMs))
		}
	}
	// Stable sort keeps stream-begin ahead of same-time writes.
	sort.SliceStable(writes, func(i, j int) bool { return writes[i].At < writes[j].At })
	reads := readSchedule(rng, plan.ReadRate, dur, 1, 1, len(ts))
	return schedule{Lanes: [][]request{writes, reads.Lanes[0]}}
}

// streamPairBody is a re-measured src→dst column: ten latency and
// bandwidth samples around typical in-rack values.
func streamPairBody(rng *rand.Rand, vms int) []byte {
	src := rng.IntN(vms)
	dst := (src + 1 + rng.IntN(vms-1)) % vms
	lat := make([]float64, 10)
	bw := make([]float64, 10)
	for i := range lat {
		lat[i] = 2e-4 * (0.8 + 0.4*rng.Float64())
		bw[i] = 1.25e8 * (0.8 + 0.4*rng.Float64())
	}
	b, _ := json.Marshal(struct {
		Src int       `json:"src"`
		Dst int       `json:"dst"`
		Lat []float64 `json:"lat"`
		Bw  []float64 `json:"bw"`
	}{src, dst, lat, bw}) // finite floats cannot fail to encode
	return b
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
