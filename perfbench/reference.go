package main

import "time"

// The benchmark runs on a host that shares its processors with other
// machines' work, and the host's speed drifts with that work: for
// seconds to minutes at a time every computation runs up to 1.5x
// slower. A run that fell into a slow stretch would read as a
// regression. To keep the drift out of the timings, a run measures a
// fixed reference computation before every timed pass and scales each
// timing of the pass by refNominal over the reference's time at that
// moment. Every end-to-end timing is therefore in reference time: the
// time the work would take on a host where the reference runs in
// exactly refNominal. The program's own speed still shows one to one:
// a pass that does twice the work takes twice the reference time. The
// human-readable lines of a run print the wall-clock figures as well.
const refNominal = time.Millisecond

// refSpan is how many passes on either side of a pass share its
// reference time: the median of the reference measurements of those
// 2·refSpan+1 passes, so that one measurement an interrupt lengthened
// moves no timing.
const refSpan = 2

// refInserts sizes the reference: about 1 ms on a 2.1 GHz Xeon vCPU.
const refInserts = 14000

var refSink int

// reference runs the reference computation once and returns its
// duration. The run calls it on a freshly collected heap, before a
// pass. It inserts pseudo-random keys into a growing map: hashing,
// allocation and scattered memory accesses in the Go runtime, the mix
// the attestation rounds spend their time in, so the host's slow
// stretches slow it about as much as they slow the rounds. It depends
// on nothing in the repository and never changes with the program.
func reference() time.Duration {
	t0 := time.Now()
	m := make(map[uint64]uint64)
	x := uint64(3)
	for i := 0; i < refInserts; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m[x>>40] += x
	}
	refSink += len(m)
	return time.Since(t0)
}

// hostScales returns, for each pass, the factor that turns its wall
// time into reference time: refNominal over the median of the
// reference times measured before the passes within refSpan of it.
func hostScales(refMs []float64) []float64 {
	scales := make([]float64, len(refMs))
	nominal := float64(refNominal) / float64(time.Millisecond)
	for i := range refMs {
		lo, hi := max(i-refSpan, 0), min(i+refSpan+1, len(refMs))
		scales[i] = nominal / median(refMs[lo:hi])
	}
	return scales
}
