package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/sig"
	"lofat/internal/stream"
	"lofat/internal/trace"
)

// streamedSuffix marks the round kind of a streamed delivery.
const streamedSuffix = "+stream"

// countingCache is the expectation cache installed on every verifier:
// a plain map whose Put count is the number of golden runs verifiers
// had to simulate.
type countingCache struct {
	mu   sync.RWMutex
	m    map[string]*core.Measurement
	puts atomic.Uint64
}

func newCountingCache() *countingCache {
	return &countingCache{m: map[string]*core.Measurement{}}
}

func (c *countingCache) GetExpectation(key string) (*core.Measurement, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m, ok := c.m[key]
	return m, ok
}

func (c *countingCache) PutExpectation(key string, m *core.Measurement) {
	c.puts.Add(1)
	c.mu.Lock()
	c.m[key] = m
	c.mu.Unlock()
}

// scenario is one kind of attestation round: a program on a device,
// the verifier that checks it, the challenge input, the delivery, and
// the verdict the round must reach.
type scenario struct {
	kind     string
	prog     *asm.Program
	prover   *attest.Prover
	verifier *attest.Verifier
	cache    *countingCache
	input    []uint32
	streamed bool
	sprover  *stream.Prover
	sverif   *stream.Verifier
	// attack builds a fresh adversary for each round (adversaries keep
	// state); nil for honest rounds.
	attack func(*asm.Program) attest.Adversary
	expect attest.Classification
	// plan holds the deterministic counts of one round, measured at
	// set-up by a traced round. Untraced rounds are credited with it;
	// a traced round whose counts differ fails.
	plan facts
}

// scenarioSpec describes a scenario before set-up, and how many of a
// pass's rounds run it.
type scenarioSpec struct {
	repeat   int
	kind     string
	prog     *asm.Program
	devCfg   core.Config
	input    []uint32
	streamed bool
	attack   func(*asm.Program) attest.Adversary
	expect   attest.Classification
}

// verifierSet shares one verifier (and its offline CFG analysis) per
// program and device configuration, as a verifier deployment would.
type verifierSet struct {
	seed  uint64
	cache *countingCache
	l     *layers
	byKey map[string]*attest.Verifier
	keys  map[string]*sig.KeyStore
}

func newVerifierSet(seed uint64, l *layers) *verifierSet {
	return &verifierSet{seed: seed, cache: newCountingCache(), l: l,
		byKey: map[string]*attest.Verifier{}, keys: map[string]*sig.KeyStore{}}
}

// build sets a scenario up: keys, prover, verifier and golden runs.
func (vs *verifierSet) build(sp scenarioSpec) (*scenario, error) {
	id := fmt.Sprintf("%x|%#v", attest.ComputeProgramID(sp.prog.Text), sp.devCfg)
	keys, ok := vs.keys[id]
	if !ok {
		var err error
		if keys, err = keysFor(vs.seed, id); err != nil {
			return nil, err
		}
		vs.keys[id] = keys
	}
	v, ok := vs.byKey[id]
	if !ok {
		t0 := time.Now()
		var err error
		v, err = attest.NewVerifier(sp.prog, sp.devCfg, keys.Public(), source(vs.seed, "nonces/"+id))
		if err != nil {
			return nil, err
		}
		vs.l.addNs("cfg.build_ns", time.Since(t0))
		vs.l.add("cfg.builds", 1)
		v.SetExpectationCache(vs.cache)
		vs.byKey[id] = v
	}
	s := &scenario{
		kind: sp.kind, prog: sp.prog, verifier: v, cache: vs.cache,
		input: sp.input, streamed: sp.streamed, attack: sp.attack, expect: sp.expect,
		prover: attest.NewProver(sp.prog, sp.devCfg, keys),
	}
	t0 := time.Now()
	if s.streamed {
		s.sprover = stream.NewProver(s.prover)
		s.sverif = stream.NewVerifier(v, stream.Config{})
		if err := s.sverif.Precompute([][]uint32{s.input}); err != nil {
			return nil, err
		}
	} else if _, err := v.Precompute([][]uint32{s.input}); err != nil {
		return nil, err
	}
	vs.l.addNs("attest.golden_ns", time.Since(t0))
	vs.l.add("attest.goldens", 1)
	return s, nil
}

// prepare runs one traced round, untimed, that measures the scenario's
// plan and checks that it reaches its verdict. A streamed scenario then
// runs one round through stream.AttestOnce, the call its untraced
// rounds make, whose segments must match the traced round's in number
// and size and whose verdict must be the same.
func (s *scenario) prepare() error {
	tf, ok, err := s.traced(nil)
	if err != nil {
		return fmt.Errorf("%s: %w", s.kind, err)
	}
	if !ok {
		return fmt.Errorf("%s: set-up round did not reach verdict %v", s.kind, s.expect)
	}
	s.plan = tf.facts
	if !s.streamed {
		return nil
	}
	var segments int
	var bytes uint64
	s.prover.Adversary = s.adversary()
	res, err := stream.AttestOnce(s.sprover, s.sverif, s.input, func(sr *stream.SegmentReport) {
		segments++
		bytes += uint64(len(stream.EncodeSegment(sr)))
	})
	if err != nil {
		return fmt.Errorf("%s: stream.AttestOnce: %w", s.kind, err)
	}
	// The close report is sent only when the stream ran to its end;
	// the traced round checked its bytes against stream.Prover.Stream's.
	segs, closeBytes := tf.msgs, uint64(0)
	if tf.closed {
		segs = tf.msgs[:len(tf.msgs)-1]
		closeBytes = uint64(len(tf.msgs[len(segs)]))
	}
	var segBytes uint64
	for _, m := range segs {
		segBytes += uint64(len(m))
	}
	if res.Class != s.expect || segments != len(segs) || bytes != segBytes {
		return fmt.Errorf("%s: stream.AttestOnce sent %d segments of %d bytes with verdict %v; the traced round %d of %d bytes with verdict %v",
			s.kind, segments, bytes, res.Class, len(segs), segBytes, s.expect)
	}
	s.plan.reportBytes = bytes + closeBytes
	return nil
}

func (s *scenario) adversary() attest.Adversary {
	if s.attack == nil {
		return nil
	}
	return s.attack(s.prog)
}

func (s *scenario) roundKind() string {
	if s.streamed {
		return s.kind + streamedSuffix
	}
	return s.kind
}

// untraced runs one round through the public round-trip calls and
// reports whether it reached its expected verdict.
func (s *scenario) untraced() (facts, bool) {
	f := s.plan
	if s.streamed {
		s.prover.Adversary = s.adversary()
		res, err := stream.AttestOnce(s.sprover, s.sverif, s.input, nil)
		return f, err == nil && res.Class == s.expect && !res.VerifierFault
	}
	s.prover.Adversary = s.adversary()
	ch, err := s.verifier.NewChallenge(s.input)
	if err != nil {
		return f, false
	}
	rep, err := s.prover.Attest(ch)
	if err != nil {
		return f, false
	}
	b := attest.EncodeReport(rep)
	got, err := attest.DecodeReport(b)
	if err != nil {
		return f, false
	}
	res := s.verifier.Verify(ch, got)
	f.reportBytes = uint64(len(b))
	return f, res.Class == s.expect && !res.VerifierFault
}

// run runs one round, traced or not, and records it.
func (s *scenario) run(traced bool, t *tally, l *layers) {
	if !traced {
		t0 := time.Now()
		f, ok := s.untraced()
		t.round(s.roundKind(), time.Since(t0), ok, f)
		return
	}
	tf, ok, err := s.traced(l)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.kind, err)
	}
	if ok && tf.facts != s.plan {
		fmt.Fprintf(os.Stderr, "perfbench: %s: traced counts %+v differ from plan %+v\n", s.kind, tf.facts, s.plan)
		ok = false
	}
	l.verdict()
	t.round(s.roundKind(), tf.span, ok, tf.facts)
}

// tracedFacts carries a traced round's counts and its span: the time
// from challenge to verdict, excluding the benchmark's own checks.
type tracedFacts struct {
	facts
	span time.Duration
	// msgs are the encoded messages a streamed round's device sent:
	// its segments, then its close report if the stream closed.
	msgs   [][]byte
	closed bool
}

func (s *scenario) traced(l *layers) (tracedFacts, bool, error) {
	if s.streamed {
		return s.tracedStream(l)
	}
	return s.tracedClassic(l)
}

// timedSink wraps the device on the core's trace port and times every
// call into it, so the core's own time is the run time minus the time
// spent inside the sink.
type timedSink struct {
	batch   trace.BatchSink
	single  trace.Sink
	ns      time.Duration
	events  int
	batches int
}

func (s *timedSink) RetireBatch(events []trace.Event) {
	t0 := time.Now()
	s.batch.RetireBatch(events)
	s.ns += time.Since(t0)
	s.events += len(events)
	s.batches++
}

func (s *timedSink) Sync(cycle uint64) {
	t0 := time.Now()
	s.batch.Sync(cycle)
	s.ns += time.Since(t0)
}

func (s *timedSink) Retire(e trace.Event) {
	t0 := time.Now()
	s.single.Retire(e)
	s.ns += time.Since(t0)
	s.events++
}

var errBudget = errors.New("instruction budget exhausted")

// tracedAttest answers a challenge by driving the public calls
// Prover.Attest makes — AcquireMachine, AcquireDevice, Run (or Step
// under an adversary), Finalize, SignedPayload, Sign — with a timed
// sink on the trace port.
func tracedAttest(p *attest.Prover, ch attest.Challenge, adv attest.Adversary, l *layers) (*attest.Report, facts, error) {
	t0 := time.Now()
	devCfg := p.DeviceConfig()
	mach, err := cpu.AcquireMachine(p.Program(), cpu.LoadOptions{})
	if err != nil {
		return nil, facts{}, err
	}
	dev := core.AcquireDevice(devCfg)
	sink := &timedSink{batch: dev}
	c := mach.CPU
	c.TraceBatch = sink
	c.TraceCFOnly = dev.CFOnlyCompatible()
	c.Input = ch.Input
	c.IRQ = devCfg.IRQ
	t1 := time.Now()
	var stepped uint64
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
		stepped = c.Retired
	}
	t2 := time.Now()
	if err != nil {
		cpu.ReleaseMachine(mach)
		core.ReleaseDevice(dev)
		return nil, facts{}, err
	}
	meas := dev.Finalize()
	t3 := time.Now()
	f := facts{
		instructions: c.Retired,
		cycles:       c.Cycle,
		stall:        meas.Stats.ProcessorStallCycles,
		cfEvents:     meas.Stats.ControlFlowEvents,
		hashedPairs:  meas.Stats.HashedPairs,
	}
	rep := &attest.Report{Program: p.ProgramID(), Nonce: ch.Nonce, Hash: meas.Hash, Loops: meas.Loops, ExitCode: c.ExitCode}
	cpu.ReleaseMachine(mach)
	core.ReleaseDevice(dev)
	payload := attest.SignedPayload(rep)
	t4 := time.Now()
	rep.Sig = p.Sign(payload)
	t5 := time.Now()

	l.addNs("attest.attest_ns", t1.Sub(t0)+t4.Sub(t3))
	l.addNs("cpu.self_ns", t2.Sub(t1)-sink.ns)
	l.add("cpu.stepped", float64(stepped))
	l.addNs("core.retire_ns", sink.ns)
	l.add("core.events", float64(sink.events))
	l.add("core.batches", float64(sink.batches))
	l.addNs("core.finalize_ns", t3.Sub(t2))
	l.hi("core.max_lag_cycles", float64(meas.Stats.MaxLagCycles))
	l.addNs("sig.sign_ns", t5.Sub(t4))
	l.add("sig.signs", 1)
	return rep, f, nil
}

// timeVerify times sig.Verify on a payload the verifier checked: the
// signature share of a verification, measured on the same bytes.
func timeVerify(l *layers, pub []byte, payload, sg []byte) time.Duration {
	t0 := time.Now()
	_ = sig.Verify(pub, payload, sg)
	d := time.Since(t0)
	l.addNs("sig.verify_ns", d)
	l.add("sig.verifies", 1)
	return d
}

// tracedClassic is one in-memory round with every layer timed:
// challenge, traced attestation, report codec, verification. After the
// verdict it checks that the report is byte-identical to the one
// Prover.Attest produces and replays the round's trace through the
// device's units.
func (s *scenario) tracedClassic(l *layers) (tracedFacts, bool, error) {
	v := s.verifier
	t0 := time.Now()
	ch, err := v.NewChallenge(s.input)
	if err != nil {
		return tracedFacts{}, false, err
	}
	t1 := time.Now()
	rep, f, err := tracedAttest(s.prover, ch, s.adversary(), l)
	if err != nil {
		return tracedFacts{}, false, err
	}
	t2 := time.Now()
	b := attest.EncodeReport(rep)
	got, err := attest.DecodeReport(b)
	if err != nil {
		return tracedFacts{}, false, err
	}
	t3 := time.Now()
	puts := s.cache.puts.Load()
	res := v.Verify(ch, got)
	t4 := time.Now()
	f.reportBytes = uint64(len(b))
	ok := res.Class == s.expect && !res.VerifierFault

	// Prover.Attest on the same challenge must sign the same bytes:
	// Ed25519 is deterministic.
	s.prover.Adversary = s.adversary()
	want, err := s.prover.Attest(ch)
	if err != nil || string(attest.EncodeReport(want)) != string(b) {
		return tracedFacts{facts: f, span: t4.Sub(t0)}, false, fmt.Errorf("traced report differs from Prover.Attest's")
	}
	if l != nil {
		sv := timeVerify(l, v.PublicKey(), attest.SignedPayload(got), got.Sig)
		l.addNs("attest.verify_ns", t1.Sub(t0)+t4.Sub(t3)-sv)
		l.addNs("attest.codec_ns", t3.Sub(t2))
		l.add("attest.golden_runs", float64(s.cache.puts.Load()-puts))
		if !res.Accepted {
			l.add("attest.rejected", 1)
		}
		if !replayRound(s.prover, s.input, s.adversary(), rep.Hash, l) {
			return tracedFacts{facts: f, span: t4.Sub(t0)}, false, fmt.Errorf("replay digest differs from the live one")
		}
	}
	return tracedFacts{facts: f, span: t4.Sub(t0)}, ok, nil
}

var errAbort = errors.New("verifier rejected mid-stream")

// tracedStream is one streamed round driven through the public calls
// stream.AttestOnce and stream.Prover.Stream make, with the segment
// emitter timed on the per-event trace port and each segment's
// signature and Session.Consume timed inside the emit callback.
func (s *scenario) tracedStream(l *layers) (tracedFacts, bool, error) {
	ap := s.sprover.Inner()
	adv := s.adversary()
	t0 := time.Now()
	sess, open, err := s.sverif.Open(s.input)
	if err != nil {
		return tracedFacts{}, false, err
	}
	t1 := time.Now()
	mach, err := cpu.Load(ap.Program(), cpu.LoadOptions{})
	if err != nil {
		return tracedFacts{}, false, err
	}
	devCfg := ap.DeviceConfig()
	dev := core.NewDevice(devCfg)
	var (
		verdict            *stream.Result
		cb, signNs, consNs time.Duration
		signs              int
		f                  facts
		signed             [][2][]byte
		msgs               [][]byte
	)
	em := stream.NewEmitter(dev, devCfg, int(open.SegmentEvents), func(seg core.Segment) error {
		c0 := time.Now()
		sr := &stream.SegmentReport{Program: open.Program, Nonce: open.Nonce, Index: seg.Index,
			Events: seg.Events, Chain: seg.Chain, Edges: seg.Edges}
		payload := stream.SegmentPayload(sr)
		s0 := time.Now()
		sr.Sig = ap.Sign(payload)
		signNs += time.Since(s0)
		signs++
		msgs = append(msgs, stream.EncodeSegment(sr))
		signed = append(signed, [2][]byte{payload, sr.Sig})
		k0 := time.Now()
		res := sess.Consume(sr)
		consNs += time.Since(k0)
		cb += time.Since(c0)
		if res != nil {
			verdict = res
			return errAbort
		}
		return nil
	})
	sink := &timedSink{single: em}
	c := mach.CPU
	c.Trace = sink
	c.Input = open.Input
	c.IRQ = devCfg.IRQ
	t2 := time.Now()
	for !c.Halted && em.Err() == nil && err == nil {
		if c.Retired >= ap.MaxInstructions {
			err = errBudget
		} else if adv != nil {
			err = adv(mach)
		}
		if err == nil {
			err = c.Step()
		}
	}
	t3 := time.Now()
	if err != nil {
		sess.Abort()
		return tracedFacts{}, false, err
	}
	cbRun := cb
	f.instructions, f.cycles = c.Retired, c.Cycle
	var res stream.Result
	var t4, t5, t6 time.Time
	closed := false
	if verdict == nil {
		meas, ferr := em.Finalize()
		t4 = time.Now()
		if ferr == nil {
			f.stall = meas.Stats.ProcessorStallCycles
			f.cfEvents = meas.Stats.ControlFlowEvents
			f.hashedPairs = meas.Stats.HashedPairs
			l.hi("core.max_lag_cycles", float64(meas.Stats.MaxLagCycles))
			rep := attest.Report{Program: ap.ProgramID(), Nonce: open.Nonce, Hash: meas.Hash, Loops: meas.Loops, ExitCode: c.ExitCode}
			payload := attest.SignedPayload(&rep)
			t5 = time.Now()
			rep.Sig = ap.Sign(payload)
			signNs += time.Since(t5)
			signs++
			signed = append(signed, [2][]byte{payload, rep.Sig})
			cr := &stream.CloseReport{Report: rep, Segments: em.SegmentCount(), Chain: em.ChainValue()}
			msgs = append(msgs, stream.EncodeClose(cr))
			t6 = time.Now()
			res = sess.Close(cr)
			closed = true
		}
	} else {
		t4 = time.Now()
	}
	if !closed {
		if verdict == nil {
			sess.Abort()
			return tracedFacts{}, false, fmt.Errorf("stream ended without a verdict")
		}
		res = *verdict
		t6 = time.Now()
	}
	end := time.Now()

	if l != nil {
		l.addNs("attest.verify_ns", t1.Sub(t0)+end.Sub(t6))
		l.addNs("attest.attest_ns", t2.Sub(t1))
		l.addNs("cpu.self_ns", t3.Sub(t2)-sink.ns)
		l.add("cpu.stepped", float64(c.Retired))
		l.addNs("core.retire_ns", sink.ns-cbRun)
		l.add("core.events", float64(sink.events))
		if closed {
			l.addNs("core.finalize_ns", t4.Sub(t3)-(cb-cbRun))
			l.addNs("attest.attest_ns", t5.Sub(t4))
		}
		l.addNs("sig.sign_ns", signNs)
		l.add("sig.signs", float64(signs))
		l.addNs("stream.consume_ns", consNs)
		l.add("stream.segments", float64(res.Segments))
		l.add("stream.expected_segments", float64(sess.ExpectedSegments()))
		l.add("stream.rounds", 1)
		if !res.Accepted {
			l.add("attest.rejected", 1)
		}
		// The verifier checked the signature of every segment it
		// consumed, and of the close report when the stream closed.
		pub := s.verifier.PublicKey()
		for i := 0; i < int(res.Segments) && i < len(signed); i++ {
			timeVerify(l, pub, signed[i][0], signed[i][1])
		}
		if closed {
			last := signed[len(signed)-1]
			timeVerify(l, pub, last[0], last[1])
		}
	}
	for _, m := range msgs {
		f.reportBytes += uint64(len(m))
	}
	tf := tracedFacts{facts: f, span: end.Sub(t0), msgs: msgs, closed: closed}
	// stream.Prover.Stream on the same open request must send the same
	// bytes, stopping where the verifier stopped this round.
	stop := 0
	if !closed {
		stop = len(msgs)
	}
	s.prover.Adversary = s.adversary()
	want, err := proverStream(s.sprover, *open, stop)
	if err != nil || !equalMsgs(want, msgs) {
		return tf, false, fmt.Errorf("traced stream differs from stream.Prover.Stream's (%v)", err)
	}
	return tf, res.Class == s.expect && !res.VerifierFault, nil
}

// proverStream runs stream.Prover.Stream on an open request and
// returns the messages it sends, encoded. With stop > 0 the receiver
// hangs up after that many segments, as a verifier does on a verdict.
func proverStream(p *stream.Prover, open stream.OpenRequest, stop int) ([][]byte, error) {
	var msgs [][]byte
	cr, err := p.Stream(open, func(sr *stream.SegmentReport) error {
		msgs = append(msgs, stream.EncodeSegment(sr))
		if len(msgs) == stop {
			return errAbort
		}
		return nil
	})
	if cr != nil {
		msgs = append(msgs, stream.EncodeClose(cr))
	}
	if err != nil && !errors.Is(err, errAbort) {
		return nil, err
	}
	return msgs, nil
}

func equalMsgs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return false
		}
	}
	return true
}
