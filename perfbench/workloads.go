package main

import (
	"fmt"
	"math/rand/v2"

	"lofat/internal/core"
	"lofat/internal/workloads"
)

// closedLoop is a workload of in-memory rounds run by one client, each
// round sent only after the previous verdict returned.
type closedLoop struct {
	rounds []*scenario
}

// newClosedLoop returns the set-up step of a closed-loop workload: it
// builds every scenario and lays the pass's rounds out in the seeded
// order (a permutation of the specs' repeated rounds).
func newClosedLoop(cfg config, specs []scenarioSpec, order []int) setupFunc {
	return func(l *layers) (workload, error) {
		vs := newVerifierSet(cfg.seed, l)
		w := &closedLoop{}
		var rounds []*scenario
		for _, sp := range specs {
			s, err := vs.build(sp)
			if err != nil {
				return nil, fmt.Errorf("%s streamed=%v: %w", sp.kind, sp.streamed, err)
			}
			for i := 0; i < sp.repeat; i++ {
				rounds = append(rounds, s)
			}
		}
		for _, i := range order {
			w.rounds = append(w.rounds, rounds[i])
		}
		return w, nil
	}
}

func (w *closedLoop) prepare() error {
	done := map[*scenario]bool{}
	for _, s := range w.rounds {
		if !done[s] {
			done[s] = true
			if err := s.prepare(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *closedLoop) pass(traced bool, t *tally, l *layers) {
	for _, s := range w.rounds {
		s.run(traced, t, l)
	}
}

func (w *closedLoop) close() {}

// seededOrder draws the order of a pass's rounds.
func seededOrder(r *rand.Rand, specs []scenarioSpec) []int {
	n := 0
	for _, sp := range specs {
		n += sp.repeat
	}
	return r.Perm(n)
}

// Pass shape of attest-long. Pump rounds are most of the rounds, so
// both round percentiles fall on the long simulated schedules; the
// kernels (fib-recursive hashes every edge, crc32 and sieve are
// dedup-heavy loops) and the generated programs add control-flow
// variety. The windows on the generated programs bound how much a seed
// can change the cost of a pass.
const (
	longPumpSchedules = 4
	longPumpRepeats   = 3
	longPumpBoluses   = 8
	longPumpSteps     = 4400
	longProggen       = 2
	longProggenInst   = 2_500
	longProggenInstHi = 4_500
	longProggenMeta   = 4_000
	longProggenMetaHi = 5_000
)

// newAttestLong draws attest-long's inputs: honest in-memory rounds
// (Prover.Attest → EncodeReport/DecodeReport → Verifier.Verify) with a
// warm expectation cache.
func newAttestLong(cfg config) (setupFunc, error) {
	r := rngFor(cfg.seed, "attest-long")
	pump, err := workloads.SyringePump().Assemble()
	if err != nil {
		return nil, err
	}
	var specs []scenarioSpec
	for i := 0; i < longPumpSchedules; i++ {
		in := pumpSchedule(r, 0xC0FFEE, longPumpBoluses, longPumpSteps, 3)
		specs = append(specs, scenarioSpec{repeat: longPumpRepeats, kind: "pump", prog: pump, input: in})
	}
	for _, k := range []workloads.Workload{workloads.FibRecursive(), workloads.CRC32(), workloads.Sieve()} {
		prog, err := k.Assemble()
		if err != nil {
			return nil, err
		}
		specs = append(specs, scenarioSpec{repeat: 1, kind: k.Name, prog: prog, input: k.Input})
	}
	progs, err := pickProggen(r, longProggen, longProggenInst, longProggenInstHi, longProggenMeta, longProggenMetaHi)
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		specs = append(specs, scenarioSpec{repeat: 1, kind: "proggen", prog: p})
	}
	return newClosedLoop(cfg, specs, seededOrder(r, specs)), nil
}

// Pass shape of attack-mix: every scenario is delivered both classic
// and streamed. Classic rounds repeat more often because a streamed
// round signs and verifies every 64-event segment, which makes it
// several times dearer than a classic round of the same schedule.
const (
	mixPumpBoluses   = 4
	mixPumpSteps     = 240
	mixClassicRepeat = 3
	mixStreamRepeat  = 1
)

// newAttackMix draws attack-mix's inputs: honest and attacked rounds,
// classic and streamed, each checked against its label.
func newAttackMix(cfg config) (setupFunc, error) {
	r := rngFor(cfg.seed, "attack-mix")
	pump, err := workloads.SyringePump().Assemble()
	if err != nil {
		return nil, err
	}
	isr := workloads.PumpISR()
	isrProg, err := isr.Assemble()
	if err != nil {
		return nil, err
	}
	sched, err := isr.Schedule(isrProg)
	if err != nil {
		return nil, err
	}
	// Near-even splits: where an attack diverges, and so how early a
	// streamed round aborts, moves only a little from seed to seed.
	schedule := func(token uint32) []uint32 {
		return pumpSchedule(r, token, mixPumpBoluses, mixPumpSteps, mixPumpSteps/mixPumpBoluses*9/10)
	}
	base := []scenarioSpec{
		{kind: "pump", prog: pump, input: schedule(0xC0FFEE)},
		{kind: "pump-isr", prog: isrProg, devCfg: core.Config{IRQ: sched}},
	}
	for _, a := range workloads.Attacks() {
		sp := scenarioSpec{kind: a.Name, prog: pump, input: schedule(0xC0FFEE), attack: a.Build, expect: a.Expect}
		switch a.Name {
		case "auth-bypass":
			// One bolus, the scenario's own shape: with two or more the
			// verifier's CFG walk stops at the input ecall inside the
			// bolus loop and reports a control-flow attack instead.
			sp.input = pumpSchedule(r, a.Workload.Input[0], 1, mixPumpSteps, 3)
		case "code-pointer":
			if sp.prog, err = a.Workload.Assemble(); err != nil {
				return nil, err
			}
			sp.input = a.Workload.Input
		}
		base = append(base, sp)
	}
	var specs []scenarioSpec
	for _, sp := range base {
		sp.repeat = mixClassicRepeat
		specs = append(specs, sp)
		sp.streamed, sp.repeat = true, mixStreamRepeat
		specs = append(specs, sp)
	}
	return newClosedLoop(cfg, specs, seededOrder(r, specs)), nil
}
