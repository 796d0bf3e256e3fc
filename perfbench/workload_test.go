package main

import (
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"
	"time"
)

func mixFor(seed int64) schedule {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	return mixSchedule(rng, tenants(), 10*time.Second, defaultMix)
}

func readsFor(seed int64) schedule {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	return readSchedule(rng, 2000, time.Second, 2, 0, 8)
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	for name, gen := range map[string]func(int64) schedule{"reads": readsFor, "mix": mixFor} {
		if !reflect.DeepEqual(gen(3), gen(3)) {
			t.Errorf("%s schedule differs for the same seed", name)
		}
		if reflect.DeepEqual(gen(3), gen(4)) {
			t.Errorf("%s schedule identical across seeds", name)
		}
	}
}

func TestTwinsShareConfig(t *testing.T) {
	ts := tenants()
	for i, p := range twinPlan {
		for j, q := range twinPlan {
			if p.config == q.config && (ts[i].Seed != ts[j].Seed || ts[i].VMs != ts[j].VMs) {
				t.Errorf("tenants %d and %d share config %d but differ", i, j, p.config)
			}
		}
	}
}

func TestReadScheduleIsOpenLoopAtRate(t *testing.T) {
	s := readsFor(1)
	if s.total() != 2000 {
		t.Fatalf("%d reads in 1 s at 2000 req/s", s.total())
	}
	for li, lane := range s.Lanes {
		for i := 1; i < len(lane); i++ {
			if gap := lane[i].At - lane[i-1].At; gap != time.Millisecond {
				t.Fatalf("lane %d gap %v, want 1ms", li, gap)
			}
		}
	}
}

func TestMixHeavyWritesFixedAcrossSeeds(t *testing.T) {
	count := func(s schedule) map[string]int {
		c := map[string]int{}
		for _, r := range s.Lanes[0] {
			if !isSmallWrite(r.Kind) {
				c[r.Kind]++
			}
		}
		return c
	}
	want := map[string]int{kCalibrate: 4, kTrigger: 2, kStreamBegin: 2, kResolve: 2}
	for seed := int64(1); seed <= 5; seed++ {
		s := mixFor(seed)
		if got := count(s); !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d heavy writes %v, want %v", seed, got, want)
		}
		lane := s.Lanes[0]
		for i := 1; i < len(lane); i++ {
			if lane[i].At < lane[i-1].At {
				t.Fatalf("seed %d write lane out of order at %d", seed, i)
			}
		}
		// Streaming sessions open before any pair arrives.
		if lane[0].Kind != kStreamBegin || lane[1].Kind != kStreamBegin {
			t.Errorf("seed %d: write lane starts with %s, %s", seed, lane[0].Kind, lane[1].Kind)
		}
		for _, r := range lane {
			if r.Kind == kStreamPair && !contains(streamRoles, r.Tenant) {
				t.Errorf("seed %d: stream-pair to non-streaming tenant %d", seed, r.Tenant)
			}
		}
	}
}

func TestCheckTree(t *testing.T) {
	if err := checkTree([]int{-1, 0, 0, 1}, 4, 0); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	for name, c := range map[string]struct {
		parent []int
		root   int
	}{
		"cycle":      {[]int{-1, 2, 1, 0}, 0},
		"wrong root": {[]int{-1, 0, 0, 1}, 1},
		"short":      {[]int{-1, 0, 0}, 0},
		"out":        {[]int{-1, 0, 9, 1}, 0},
		"two roots":  {[]int{-1, -1, 0, 1}, 0},
	} {
		n := 4
		if err := checkTree(c.parent, n, c.root); err == nil {
			t.Errorf("%s: accepted %v", name, c.parent)
		}
	}
}

func TestCheckCampaign(t *testing.T) {
	out := "== ext-econ: economics (0.1s)\n\nbilling  a  b  c  break-even runs  net\n" +
		"hourly      1.92000         1.92000     1.92000     +Inf             -1.92000\n" +
		"== fig7: overall (0.2s)\n\nx  y\n1  NaN\n"
	names, tables, secs := campaignTables(out)
	if !reflect.DeepEqual(names, []string{"ext-econ", "fig7"}) || secs["fig7"] != 0.2 {
		t.Fatalf("parsed %v %v", names, secs)
	}
	errs := checkCampaign(names, tables, []string{"ext-econ", "fig7", "fig8"})
	if len(errs) != 3 { // fig8 missing, figure count, fig7 NaN; the ext-econ +Inf is exempt
		t.Fatalf("errors %v", errs)
	}
}

func TestRepeatCheckerSkipsConcurrentMutations(t *testing.T) {
	rc := newRepeatChecker()
	rec := func(epIn, epOut uint64, body string) record {
		return record{Req: request{Kind: kAdvise, Tenant: 1, Key: 3}, EpochIn: epIn, EpochOut: epOut, Body: []byte(body), Status: 200}
	}
	if err := rc.observe(rec(0, 0, "a")); err != nil {
		t.Fatal(err)
	}
	if err := rc.observe(rec(0, 0, "a")); err != nil {
		t.Fatal(err)
	}
	if err := rc.observe(rec(0, 2, "b")); err != nil { // a mutation overlapped
		t.Fatal(err)
	}
	if err := rc.observe(rec(2, 2, "b")); err != nil { // new epoch, new answer
		t.Fatal(err)
	}
	if err := rc.observe(rec(2, 2, "c")); err == nil {
		t.Fatal("changed answer with no mutation accepted")
	}
	if rc.advises != 5 || rc.repeated != 2 {
		t.Fatalf("advises %d repeated %d", rc.advises, rc.repeated)
	}
}

// TestBenchmarkJSONNamesMatchReport keeps BENCHMARK.json's metric lists
// and the report's metric names in step.
func TestBenchmarkJSONNamesMatchReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	s := &session{workload: "advise-read", tr: newTracer(), rc: newRepeatChecker()}
	l := &layers{planUs: map[int][]float64{}, decomposeMs: map[string][]float64{}, figureS: map[string]float64{}}
	r := buildReport(s, l)
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	specNames := func(xs []struct{ Name, Unit string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name+" "+x.Unit)
		}
		return out
	}
	if got, want := names(r.EndToEnd), specNames(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end:\n report %v\n spec   %v", got, want)
	}
	if got, want := names(r.PerLayer), specNames(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer:\n report %v\n spec   %v", got, want)
	}
}
