package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
	"repro/internal/stats"
)

// tinySize runs every workload in well under a second: few SSDs with the
// small NAND geometry (so tenant-mix's FTL build is cheap), short runs
// and a small tenant population. raid-tolerant needs SSDs 0-17.
var tinySize = size{
	numSSDs: 24,
	geom:    nand.TinyGeometry(),
	runtime: map[string]sim.Duration{
		"default-qd1":     20 * sim.Millisecond,
		"ull-passthrough": 10 * sim.Millisecond,
		"tenant-mix":      20 * sim.Millisecond,
		"raid-tolerant":   200 * sim.Millisecond,
	},
	tenants: 2000,
}

func TestWorkloadsPassGate(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			it := runOnce(w, tinySize, defaultSeed, false)
			if err := gate(w.name, it.res); err != nil {
				t.Fatal(err)
			}
			if it.res.events == 0 || it.res.ops == 0 {
				t.Fatalf("%d events for %d operations; the workload did not run", it.res.events, it.res.ops)
			}
		})
	}
}

// TestSeedReachesGenerators checks the seed contract: a run repeats
// exactly at one seed, and the held-out seed gives a different outcome.
func TestSeedReachesGenerators(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := runOnce(w, tinySize, defaultSeed, false).res
			b := runOnce(w, tinySize, defaultSeed, false).res
			if err := sameOutcome(w.name, a, b, "a second run"); err != nil {
				t.Fatal(err)
			}
			c := runOnce(w, tinySize, heldOutSeed, false).res
			if a.render() == c.render() {
				t.Fatalf("seeds %d and %d gave identical outcomes", defaultSeed, heldOutSeed)
			}
		})
	}
}

func TestTracingKeepsOutcome(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runOnce(w, tinySize, defaultSeed, false)
			traced := runOnce(w, tinySize, defaultSeed, true)
			if err := sameOutcome(w.name, plain.res, traced.res, "tracing"); err != nil {
				t.Fatal(err)
			}
			if w.name != raidTolerant.name && traced.res.phases == [len(phaseNames)]float64{} {
				t.Error("traced run decomposed no phases")
			}
			if len(traced.res.tracer) == 0 {
				t.Error("traced run has no tracer counts")
			}
		})
	}
}

func TestULLBelowDefault(t *testing.T) {
	ull := runOnce(ullPassthrough, tinySize, defaultSeed, false)
	if err := ullBelowDefault(tinySize, defaultSeed, ull.res, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGateRejects(t *testing.T) {
	good := runOnce(defaultQD1, tinySize, defaultSeed, false).res
	cases := map[string]func(s *simResult){
		"failed operation": func(s *simResult) { s.failed, s.completed = 1, s.completed-1 },
		"lost operation":   func(s *simResult) { s.attempted++ },
		"decreasing ladder": func(s *simResult) {
			l := s.ladders[0]
			l.P[2] = l.P[1] - 1
			s.ladders = append([]stats.Ladder{l}, s.ladders[1:]...)
		},
		"nothing completed": func(s *simResult) { s.attempted, s.completed, s.failed = 0, 0, 0 },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			s := good
			mutate(&s)
			if err := gate(defaultQD1.name, s); !errors.Is(err, errGate) {
				t.Fatalf("gate accepted it: %v", err)
			}
		})
	}
	if err := gate(raidTolerant.name, good); !errors.Is(err, errGate) {
		t.Fatalf("gate accepted a raid-tolerant run with no fault events: %v", err)
	}
}

func TestTailRung(t *testing.T) {
	for _, c := range []struct {
		n      int64
		rung   int
		beyond int64
		ok     bool
	}{
		{999, -1, 0, false},
		{1000, 0, 10, true},
		{9999, 0, 99, true},
		{10_000, 1, 10, true},
		{253_311, 2, 25, true},
		{5_000_000, 3, 50, true},
	} {
		rung, beyond, ok := latency{n: c.n}.tailRung()
		if rung != c.rung || beyond != c.beyond || ok != c.ok {
			t.Errorf("n=%d: got rung %d, %d beyond, ok %v; want %d, %d, %v",
				c.n, rung, beyond, ok, c.rung, c.beyond, c.ok)
		}
	}
	if got := rungLabel(2); got != "p99.99" {
		t.Errorf("rungLabel(2) = %q", got)
	}
}

// TestSelfShares profiles real simulator work and checks that the
// decoded shares cover the whole profile and find the event engine.
func TestSelfShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	start := hostNow()
	for hostNow().Sub(start).Seconds() < 0.5 {
		runOnce(defaultQD1, tinySize, defaultSeed, false)
	}
	pprof.StopCPUProfile()
	shares, err := selfShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %v, want 1: %v", sum, shares)
	}
	if shares["sim"] == 0 {
		t.Fatalf("no CPU time attributed to the sim package: %v", shares)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and no result", args, code, out.String())
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the metrics and
// workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []unitSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for _, s := range perLayer {
		if strings.ContainsAny(s.name, " /") {
			t.Errorf("metric name %q has a character BENCHMARK.json names may not", s.name)
		}
	}
}
