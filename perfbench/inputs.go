package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand/v2"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/cpu"
	"lofat/internal/proggen"
	"lofat/internal/sig"
)

// source returns the deterministic byte stream for one purpose of a
// seeded run. Each purpose draws from its own stream, so how one input
// is drawn never shifts another.
func source(seed uint64, purpose string) *rand.ChaCha8 {
	return rand.NewChaCha8(sha256.Sum256(fmt.Appendf(nil, "perfbench/%d/%s", seed, purpose)))
}

func rngFor(seed uint64, purpose string) *rand.Rand {
	return rand.New(source(seed, purpose))
}

// keysFor generates a device key pair from the seed.
func keysFor(seed uint64, device string) (*sig.KeyStore, error) {
	return sig.GenerateKeyStore(io.Reader(source(seed, "key/"+device)))
}

// pumpSchedule builds a syringe-pump input: token, bolus count, then
// the steps of each bolus. The seed only splits a fixed total across
// the boluses, so every schedule of a given shape retires the same
// number of instructions and differs only in its loop records.
func pumpSchedule(r *rand.Rand, token uint32, boluses, total, minSteps int) []uint32 {
	steps := make([]int, boluses)
	for i := range steps {
		steps[i] = minSteps
	}
	for rest := total - boluses*minSteps; rest > 0; rest-- {
		steps[r.IntN(boluses)]++
	}
	in := []uint32{token, uint32(boluses)}
	for _, s := range steps {
		in = append(in, uint32(s))
	}
	return in
}

// pickProggen draws generated programs from the seed and keeps the
// first n whose honest run retires between instLo and instHi
// instructions and reports between metaLo and metaHi bytes of loop
// metadata. The windows keep the cost of a pass nearly the same from
// seed to seed, while the programs' control flow still varies.
func pickProggen(r *rand.Rand, n int, instLo, instHi uint64, metaLo, metaHi int) ([]*asm.Program, error) {
	var out []*asm.Program
	for tries := 0; len(out) < n; tries++ {
		if tries == 100_000 {
			return nil, fmt.Errorf("proggen: found %d of %d programs in the cost windows", len(out), n)
		}
		prog, err := asm.Assemble(proggen.GenerateSeeded(r.Int64(), proggen.Config{}))
		if err != nil {
			return nil, err
		}
		m, k, err := measure(prog)
		if err != nil {
			return nil, err
		}
		if meta := attest.MetadataSize(m.Loops); k >= instLo && k <= instHi && meta >= metaLo && meta <= metaHi {
			out = append(out, prog)
		}
	}
	return out, nil
}

// measure runs a program's honest attested execution and reports its
// measurement and the instructions it retired. It loads an unpooled
// machine: cpu.AcquireMachine keeps a pool per program for the life of
// the process, and a rejected candidate must leave nothing behind.
func measure(prog *asm.Program) (core.Measurement, uint64, error) {
	m, err := cpu.Load(prog, cpu.LoadOptions{})
	if err != nil {
		return core.Measurement{}, 0, err
	}
	dev := core.NewDevice(core.Config{})
	m.CPU.TraceBatch = dev
	m.CPU.TraceCFOnly = dev.CFOnlyCompatible()
	if err := m.CPU.Run(50_000_000); err != nil {
		return core.Measurement{}, 0, err
	}
	return dev.Finalize(), m.CPU.Retired, nil
}
