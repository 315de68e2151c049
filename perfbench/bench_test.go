package main

import (
	"testing"
	"time"

	"lofat/internal/attest"
)

// counts are the deterministic counts of a tally, per round (per sweep
// for the federation ones). The benchmark's tests assert they repeat
// exactly across runs and between traced and untraced passes.
func (t *tally) counts() map[string]float64 {
	c := map[string]float64{
		"instructions": t.perRound(t.instructions),
		"cycles":       t.perRound(t.cycles),
		"report_bytes": t.perRound(t.reportBytes),
		"stall_cycles": t.perRound(t.stall),
		"cf_events":    t.perRound(t.cfEvents),
		"hashed_pairs": t.perRound(t.hashedPairs),
	}
	if len(t.sweepFsyncs) > 0 {
		c["fsyncs_per_sweep"] = median(t.sweepFsyncs)
	}
	return c
}

// shortRun runs a workload briefly with one set-up.
func shortRun(t *testing.T, cfg config) *outcome {
	t.Helper()
	cfg.seed = 7
	cfg.setups = 1
	cfg.duration = 400 * time.Millisecond
	cfg.tmpDir = t.TempDir()
	out, err := run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if out.traced.attempted == 0 && cfg.traced {
		t.Fatalf("%s: no traced pass ran", cfg.workload)
	}
	return out
}

func equalCounts(t *testing.T, what string, a, b map[string]float64) {
	t.Helper()
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %s = %v, then %v", what, k, v, b[k])
		}
	}
}

// TestDeterministicCounts checks that the counts the benchmark reports
// as deterministic repeat exactly for a fixed seed: across two untraced
// runs, between the traced and untraced passes of a trace run, and
// across two trace runs.
func TestDeterministicCounts(t *testing.T) {
	for _, w := range []string{"attest-long", "attack-mix", "fed-sweep"} {
		t.Run(w, func(t *testing.T) {
			a := shortRun(t, config{workload: w})
			b := shortRun(t, config{workload: w})
			c := shortRun(t, config{workload: w, traced: true})
			d := shortRun(t, config{workload: w, traced: true})
			for _, o := range []*outcome{a, b, c, d} {
				if o.untraced.failed+o.traced.failed != 0 {
					t.Fatalf("failed rounds: %d untraced, %d traced", o.untraced.failed, o.traced.failed)
				}
				if o.untraced.stall+o.traced.stall != 0 {
					t.Fatalf("stall cycles: %d", o.untraced.stall+o.traced.stall)
				}
			}
			base := a.untraced.counts()
			equalCounts(t, "untraced runs", base, b.untraced.counts())
			equalCounts(t, "traced vs untraced passes", base, c.traced.counts())
			equalCounts(t, "trace run's untraced passes", base, c.untraced.counts())

			ea, eb := endToEndResult(a).Metrics, endToEndResult(b).Metrics
			for _, k := range []string{"report_bytes", "sim_cycles_per_round"} {
				if ea[k] != eb[k] {
					t.Errorf("%s: %v, then %v", k, ea[k], eb[k])
				}
			}
			lc, ld := layerResult(c).Metrics, layerResult(d).Metrics
			for _, k := range []string{
				"cpu.instructions", "filter.cf_events", "hashengine.hashed_pairs",
				"core.stall_cycles", "fed.fsyncs_per_sweep", "fleet.wire_bytes_per_round",
			} {
				if lc[k] != ld[k] {
					t.Errorf("%s: %v, then %v", k, lc[k], ld[k])
				}
			}
			if got, want := lc["cpu.instructions"].Value, base["instructions"]; got != want {
				t.Errorf("cpu.instructions %v, untraced instructions per round %v", got, want)
			}
			if w != "attack-mix" {
				// Every round is replayed (attack-mix replays only its
				// classic rounds), so the replay's per-round counts are
				// the live rounds'.
				if got, want := lc["filter.cf_events"].Value, base["cf_events"]; got != want {
					t.Errorf("filter.cf_events %v, live %v", got, want)
				}
				if got, want := lc["hashengine.hashed_pairs"].Value, base["hashed_pairs"]; got != want {
					t.Errorf("hashengine.hashed_pairs %v, live %v", got, want)
				}
			}
		})
	}
}

// TestChecksCanFail proves the verdict and replay checks can fail: a
// mislabeled scenario and a corrupted replay stream must both raise
// the failed share above 0.
func TestChecksCanFail(t *testing.T) {
	cfg := config{workload: "attack-mix", seed: 7}
	setup, err := newAttackMix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := setup(newLayers())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	for _, s := range w.(*closedLoop).rounds {
		if s.kind == "auth-bypass" {
			s.expect = attest.ClassAccepted
		}
	}
	mis := newTally()
	w.pass(false, mis, nil)
	if r := mis.result(nil); r.Failed == 0 || r.Correct {
		t.Errorf("mislabeled auth-bypass: failed=%d correct=%v", r.Failed, r.Correct)
	}

	corruptReplay = true
	defer func() { corruptReplay = false }()
	for _, w := range []string{"attest-long", "fed-sweep"} {
		bad := shortRun(t, config{workload: w, traced: true})
		r := layerResult(bad)
		if r.Metrics["bench.failed_share"].Value == 0 || r.Correct {
			t.Errorf("%s with corrupted replay: failed_share=%v correct=%v", w, r.Metrics["bench.failed_share"].Value, r.Correct)
		}
	}
}

// TestOrderStat pins the nearest-rank rule.
func TestOrderStat(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}} {
		if got := orderStat(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p*100, got, c.want)
		}
	}
}

// TestHostScales pins the reference scaling: each pass takes the
// median reference time of the passes within refSpan of it, so one
// lengthened measurement moves no scale, and a stretch that ran the
// reference twice as slowly halves the scale of its passes.
func TestHostScales(t *testing.T) {
	refs := make([]float64, 4*refSpan)
	for i := range refs {
		refs[i] = 1
		if i >= 2*refSpan {
			refs[i] = 2
		}
	}
	refs[refSpan/2] = 50
	s := hostScales(refs)
	if s[0] != 1 || s[refSpan/2] != 1 {
		t.Errorf("scales %v at an outlier, want 1", s[:refSpan])
	}
	if s[len(s)-1] != 0.5 {
		t.Errorf("scale %v in the slow stretch, want 0.5", s[len(s)-1])
	}
}
