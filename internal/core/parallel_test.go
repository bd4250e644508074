package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

// sweepOpts are deliberately small: the cross-checks below run every
// fan-out experiment shape twice (serial and parallel), and what they
// assert is scheduling-independence, not latency values.
func sweepOpts() ExpOptions {
	return ExpOptions{Runtime: 60 * sim.Millisecond, Seed: 7, NumSSDs: 12, SoloRuns: 2}
}

// registryRuns caches one pass over the whole registry at sweepOpts
// scale per pool width, shared by the parallel-determinism, golden and
// export tests so the suite pays for each pass once.
var registryRuns = map[int]*struct {
	once    sync.Once
	reports []Report
}{1: {}, 8: {}}

func registryReports(parallel int) []Report {
	run := registryRuns[parallel]
	run.once.Do(func() {
		o := sweepOpts()
		o.Parallel = parallel
		for _, e := range Experiments() {
			run.reports = append(run.reports, e.Report(o, 1))
		}
		// A seed sweep fans out over seeds rather than configurations.
		fig7, _ := Lookup("fig7")
		run.reports = append(run.reports, fig7.Report(o, 3))
	})
	return run.reports
}

// reportNamed finds the first report of the named experiment.
func reportNamed(reports []Report, name string) Report {
	for _, r := range reports {
		if r.Name == name {
			return r
		}
	}
	panic("no report named " + name)
}

// TestParallelDeterminism is the tentpole guarantee of the runner
// layer, wired into scripts/check.sh under -race: the report of every
// registry experiment — ladders, counters, notes and failure traces —
// is byte-identical between the serial reference order (-parallel 1)
// and an oversubscribed pool (-parallel 8), regardless of goroutine
// scheduling. So is the typed result behind it, down to the fields no
// report prints (the load ablation's capacity and error counts, every
// drive-health field, the rebuild streams, tail amplification).
func TestParallelDeterminism(t *testing.T) {
	serial, parallel := registryReports(1), registryReports(8)
	for i, r := range serial {
		if !reflect.DeepEqual(r.Result, parallel[i].Result) {
			t.Errorf("%s: parallel typed result diverged from serial reference", r.Name)
		}
		a, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(parallel[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: parallel report diverged from serial reference (%d vs %d bytes)", r.Name, len(a), len(b))
		}
	}
}

// TestSeedSweepShape pins the sweep conventions the CLI prints: n
// distributions in seed order, tagged config#seed, with position 0
// exactly the unswept run, and the pooled merge covering every ladder.
func TestSeedSweepShape(t *testing.T) {
	o := sweepOpts()
	run := func(so ExpOptions) Distribution { return RunLatencyDistribution(CHRT(), so) }
	sweep := RunSeedSweep(o, 3, run)
	if len(sweep) != 3 {
		t.Fatalf("sweep produced %d distributions, want 3", len(sweep))
	}
	wantNames := []string{"chrt#7", "chrt#8", "chrt#9"}
	for i, d := range sweep {
		if d.Config != wantNames[i] {
			t.Errorf("sweep[%d].Config = %q, want %q", i, d.Config, wantNames[i])
		}
	}
	base := run(o)
	if sweep[0].Summary != base.Summary {
		t.Error("sweep position 0 differs from the unswept run at the same seed")
	}
	if sweep[1].Summary == sweep[0].Summary {
		t.Error("distinct sweep seeds produced identical summaries")
	}
	merged := MergeSweep("pool", sweep)
	if got, want := len(merged.Ladders), 3*o.NumSSDs; got != want {
		t.Errorf("merged sweep has %d ladders, want %d", got, want)
	}
}
