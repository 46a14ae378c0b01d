package main

import (
	"bytes"
	"testing"

	"ravenguard/internal/sim"
)

// tinyCampaign is one attack index over two values: six trials.
var tinyCampaign = campaignShape{
	name:       "tiny-campaign",
	attacks:    1,
	values:     []int16{12000, 20000},
	teleop:     5,
	setupReps:  2,
	setupBatch: 3,
}

// TestCampaignWorkloadSmoke runs the campaign end to end at tiny size,
// untraced and traced: the end-to-end sweep, the job-split shard-merged
// sweep and RunMitigationComparison must all render the same.
func TestCampaignWorkloadSmoke(t *testing.T) {
	for _, trace := range []bool{false, true} {
		rep, err := runCampaign(tinyCampaign, options{seed: 2, seconds: 1e-3, trace: trace, clock: sim.WallClock})
		if err != nil {
			t.Fatal(err)
		}
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		var out bytes.Buffer
		if err := rep.write(&out, defs); err != nil {
			t.Fatal(err)
		}
		res := lastResult(t, out.String())
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace=%v: %+v\n%s", trace, res, out.String())
		}
		names := []string{"job.ms_p50", "job.ms_max", "finalize.ms", "pool.busy_ratio"}
		if !trace {
			names = nil
			for _, d := range endToEnd {
				names = append(names, d.name)
			}
		}
		for _, n := range names {
			if res.Metrics[n].Value <= 0 {
				t.Errorf("trace=%v: %s = %g", trace, n, res.Metrics[n].Value)
			}
		}
	}
}

// TestCampaignChecksCatchMismatches feeds the rendering checks a wrong
// rendering and expects the trials counted as failed.
func TestCampaignChecksCatchMismatches(t *testing.T) {
	c := newCampaignRun(tinyCampaign, options{seed: 2, clock: sim.WallClock})
	c.ref = []string{"a", "b"}
	c.check("same", []string{"a", "b"})
	if c.rep.failed != 0 {
		t.Fatalf("identical rendering failed: %v", c.rep.problems)
	}
	c.check("changed", []string{"a", "c"})
	if c.rep.failed != int64(c.trials) {
		t.Errorf("changed rendering failed %d trials, want %d", c.rep.failed, c.trials)
	}
	c.rep = newReport(c.sh.name)
	c.comparison() // the scalar path cannot render "a" or "b"
	if c.rep.failed == 0 {
		t.Error("comparison oracle accepted a wrong sweep rendering")
	}
}
