package main

import (
	"time"

	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/filter"
	"lofat/internal/hashengine"
	"lofat/internal/monitor"
	"lofat/internal/trace"
)

// corruptReplay, set only by the benchmark's own tests, flips one bit of
// every captured event stream before it is replayed, which must make
// the replay check fail.
var corruptReplay bool

// capture records what the core's trace port delivers to the device:
// every event, and every clock Sync with its position in the stream.
type capture struct {
	dev    *core.Device
	events []trace.Event
	syncs  []syncPoint
}

type syncPoint struct {
	at    int // events delivered before the Sync
	cycle uint64
}

func (c *capture) RetireBatch(events []trace.Event) {
	c.events = append(c.events, events...)
	c.dev.RetireBatch(events)
}

func (c *capture) Sync(cycle uint64) {
	c.syncs = append(c.syncs, syncPoint{len(c.events), cycle})
	c.dev.Sync(cycle)
}

// captureRun re-runs a round's attested execution, untimed, on the
// same trace port Prover.Attest uses, and keeps its event stream.
func captureRun(p *attest.Prover, input []uint32, adv attest.Adversary) (*capture, error) {
	devCfg := p.DeviceConfig()
	mach, err := cpu.AcquireMachine(p.Program(), cpu.LoadOptions{})
	if err != nil {
		return nil, err
	}
	defer cpu.ReleaseMachine(mach)
	dev := core.AcquireDevice(devCfg)
	defer core.ReleaseDevice(dev)
	cp := &capture{dev: dev}
	c := mach.CPU
	c.TraceBatch = cp
	c.TraceCFOnly = dev.CFOnlyCompatible()
	c.Input = input
	c.IRQ = devCfg.IRQ
	if adv == nil {
		err = c.Run(p.MaxInstructions)
	} else {
		for !c.Halted && err == nil {
			if c.Retired >= p.MaxInstructions {
				err = errBudget
			} else if err = adv(mach); err == nil {
				err = c.Step()
			}
		}
	}
	cp.dev = nil
	return cp, err
}

// replayRound captures a round's event stream and replays it three
// times: through the branch filter alone, through the filter feeding
// the loop monitor, and through a whole device (filter, monitor and
// hash engine). The difference between successive replays is the time
// of the unit added; the whole device's digest must equal the live
// round's.
func replayRound(p *attest.Prover, input []uint32, adv attest.Adversary, live [hashengine.DigestSize]byte, l *layers) bool {
	cp, err := captureRun(p, input, adv)
	if err != nil || len(cp.events) == 0 {
		return false
	}
	if corruptReplay {
		cp.events[len(cp.events)/2].NextPC ^= 4
	}
	devCfg := p.DeviceConfig()
	var ops []filter.Op

	f := filter.New(devCfg.Filter)
	t0 := time.Now()
	for i := range cp.events {
		ops = f.Step(cp.events[i], ops[:0])
	}
	ops = f.Flush(ops[:0])
	filterNs := time.Since(t0)

	f = filter.New(devCfg.Filter)
	m := monitor.New(devCfg.Monitor, func(hashengine.Pair) {})
	t1 := time.Now()
	for i := range cp.events {
		ops = f.Step(cp.events[i], ops[:0])
		for _, op := range ops {
			m.Apply(op)
		}
	}
	for _, op := range f.Flush(ops[:0]) {
		m.Apply(op)
	}
	withMonitor := time.Since(t1)

	dev := core.AcquireDevice(devCfg)
	defer core.ReleaseDevice(dev)
	t2 := time.Now()
	at := 0
	for _, sp := range cp.syncs {
		dev.RetireBatch(cp.events[at:sp.at])
		dev.Sync(sp.cycle)
		at = sp.at
	}
	dev.RetireBatch(cp.events[at:])
	meas := dev.Finalize()
	whole := time.Since(t2)

	st := meas.Stats
	l.add("replays", 1)
	l.addNs("filter.step_ns", filterNs)
	l.add("filter.cf_events", float64(f.Events))
	l.add("filter.loops", float64(f.Pushes))
	l.addNs("monitor.apply_ns", withMonitor-filterNs)
	l.add("monitor.new", float64(m.NewPaths))
	l.add("monitor.repeated", float64(m.RepeatedPaths))
	l.addNs("hashengine.absorb_ns", whole-withMonitor)
	l.add("hashengine.hashed", float64(st.HashedPairs))
	l.add("hashengine.deduped", float64(st.DedupedPairs))
	l.hi("hashengine.fifo_max", float64(st.Engine.MaxFIFO))
	return meas.Hash == live
}
