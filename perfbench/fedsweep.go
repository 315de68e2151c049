package main

import (
	"crypto/ed25519"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lofat/internal/asm"
	"lofat/internal/attest"
	"lofat/internal/core"
	"lofat/internal/fed"
	"lofat/internal/fed/faultfs"
	"lofat/internal/fleet"
	"lofat/internal/hashengine"
	"lofat/internal/workloads"
)

// Shape of fed-sweep: a coordinator sweeping fedDevices honest devices
// placed on fedNodes persistent nodes with fedReplicas-way replication.
// Each node verifies with one worker, so at most fedNodes device
// connections are open at once.
const (
	fedDevices  = 256
	fedNodes    = 2
	fedReplicas = 2
)

// fedDevice is one simulated device: its prover behind the attest frame
// protocol, served over an in-memory pipe per dial.
type fedDevice struct {
	id     fleet.DeviceID
	pub    ed25519.PublicKey
	prover *attest.Prover
}

type fedSweep struct {
	prog  *asm.Program
	pid   attest.ProgramID
	input []uint32
	plan  facts // one device round's deterministic counts

	coord   *fed.Coordinator
	nodes   []*fed.Node
	fsys    []*countingFS
	devices map[string]*fedDevice
	dir     string
	serving sync.WaitGroup

	ctrlBytes atomic.Uint64 // coordinator ↔ node control-plane bytes

	// The pass in progress: device rounds record into these.
	mu      sync.Mutex
	traced  bool
	t       *tally
	l       *layers
	wire    uint64 // device connection bytes, both directions
	sent    uint64 // bytes devices sent
	dials   int
	bad     int      // traced device rounds whose counts or replay failed
	samples []sample // traced rounds, checked after the sweep
}

// sample is one traced device round kept for the post-sweep checks:
// the signature timing on the verified payload and the replay.
type sample struct {
	d       *fedDevice
	payload []byte
	sig     []byte
	hash    [hashengine.DigestSize]byte
}

// newFedSweep sets up fed-sweep: nodes with their WALs in a temporary
// directory, the coordinator joined to them over in-memory pipes, and
// every device enrolled.
func newFedSweep(cfg config) (setupFunc, error) {
	prog, err := workloads.SyringePump().Assemble()
	if err != nil {
		return nil, err
	}
	// The seed splits the short pump firmware's 8 steps across its two
	// boluses: the run length stays 133 instructions.
	input := pumpSchedule(rngFor(cfg.seed, "fed-sweep"), 0xC0FFEE, 2, 8, 1)
	return func(l *layers) (workload, error) {
		w := &fedSweep{prog: prog, input: input, devices: map[string]*fedDevice{}}
		if err := w.setup(cfg, l); err != nil {
			w.close()
			return nil, err
		}
		return w, nil
	}, nil
}

func (w *fedSweep) setup(cfg config, l *layers) error {
	var err error
	if err := os.MkdirAll(cfg.tmpDir, 0o755); err != nil {
		return err
	}
	if w.dir, err = os.MkdirTemp(cfg.tmpDir, "fed-"); err != nil {
		return err
	}
	w.coord = fed.NewCoordinator(fed.Config{Replicas: fedReplicas})
	for i := 0; i < fedNodes; i++ {
		cfs := &countingFS{}
		n, err := fed.NewNode(fed.NodeConfig{
			ID:    fed.NodeID(fmt.Sprintf("node-%d", i)),
			Dir:   filepath.Join(w.dir, fmt.Sprintf("node-%d", i)),
			Fleet: fleet.Config{Workers: 1, Dial: w.dialDevice},
			FS:    cfs,
		})
		if err != nil {
			return err
		}
		w.nodes = append(w.nodes, n)
		w.fsys = append(w.fsys, cfs)
		if _, err := w.coord.Join(n.ID(), w.nodeDialer(n)); err != nil {
			return err
		}
	}
	// Registering the program builds each node's verifier (its CFG)
	// and warms its measurement cache with the golden run.
	t0 := time.Now()
	if w.pid, err = w.coord.RegisterProgram(w.prog, core.Config{}, [][]uint32{w.input}); err != nil {
		return err
	}
	l.addNs("cfg.build_ns", time.Since(t0))
	l.add("cfg.builds", fedNodes)
	t0 = time.Now()
	if _, _, err := attest.Measure(w.prog, core.Config{}, w.input, 50_000_000); err != nil {
		return err
	}
	l.addNs("attest.golden_ns", time.Since(t0))
	l.add("attest.goldens", 1)
	for i := 0; i < fedDevices; i++ {
		// Device IDs do not depend on the seed, so ring placement, and
		// with it each node's share of the sweep, is the same in every
		// run.
		id := fleet.DeviceID(fmt.Sprintf("dev-%03d", i))
		keys, err := keysFor(cfg.seed, string(id))
		if err != nil {
			return err
		}
		d := &fedDevice{id: id, pub: keys.Public(), prover: attest.NewProver(w.prog, core.Config{}, keys)}
		addr := "pipe/" + string(id)
		w.devices[addr] = d
		t0 := time.Now()
		if err := w.coord.Enroll(id, w.pid, keys.Public(), addr); err != nil {
			return err
		}
		l.addNs("fed.enroll_ns", time.Since(t0))
		l.add("fed.enrolls", 1)
	}
	return nil
}

// prepare measures one device round's deterministic counts.
func (w *fedSweep) prepare() error {
	_, f, err := tracedAttest(w.devices["pipe/dev-000"].prover, attest.Challenge{Program: w.pid, Input: w.input}, nil, nil)
	w.plan = f
	return err
}

// nodeDialer opens the coordinator's control-plane connection to a
// node over an in-memory pipe, counting its bytes.
func (w *fedSweep) nodeDialer(n *fed.Node) fed.DialFunc {
	return func() (io.ReadWriteCloser, error) {
		client, server := net.Pipe()
		w.serving.Add(1)
		go func() {
			defer w.serving.Done()
			defer server.Close()
			_ = n.ServeConn(server)
		}()
		return &ctrlConn{Conn: client, n: &w.ctrlBytes}, nil
	}
}

type ctrlConn struct {
	net.Conn
	n *atomic.Uint64
}

func (c *ctrlConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(uint64(k))
	return k, err
}

func (c *ctrlConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(uint64(k))
	return k, err
}

// dialDevice is the nodes' fleet.Config.Dial: each round dials its
// device, which answers over an in-memory pipe. The returned conn times
// the round from dial to the close that follows the verdict.
func (w *fedSweep) dialDevice(addr string) (io.ReadWriteCloser, error) {
	d, ok := w.devices[addr]
	if !ok {
		return nil, fmt.Errorf("no device at %s", addr)
	}
	w.mu.Lock()
	traced, l := w.traced, w.l
	w.dials++
	w.mu.Unlock()
	client, server := net.Pipe()
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		defer server.Close()
		w.serveDevice(d, server, traced, l)
	}()
	return &roundConn{Conn: client, w: w, start: time.Now()}, nil
}

type roundConn struct {
	net.Conn
	w          *fedSweep
	start      time.Time
	lastRead   time.Time
	read, sent uint64
	once       sync.Once
}

func (c *roundConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.read += uint64(k)
	c.lastRead = time.Now()
	return k, err
}

func (c *roundConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.sent += uint64(k)
	return k, err
}

func (c *roundConn) Close() error {
	c.once.Do(func() {
		d := time.Since(c.start)
		w := c.w
		w.mu.Lock()
		t, l := w.t, w.l
		w.wire += c.read + c.sent
		w.sent += c.read
		w.mu.Unlock()
		if t != nil {
			t.latency("pump", d)
		}
		l.addNs("fleet.exchange_ns", d)
		// The node hangs up once it has verified the report it read
		// last and recorded the verdict.
		l.addNs("attest.verify_ns", time.Since(c.lastRead))
	})
	return c.Conn.Close()
}

// serveDevice answers challenges on one device connection until the
// verifier hangs up. Traced, it drives the calls attest.HandleChallenge
// makes with every layer timed.
func (w *fedSweep) serveDevice(d *fedDevice, conn net.Conn, traced bool, l *layers) {
	lookup := func(id attest.ProgramID) (*attest.Prover, bool) { return d.prover, id == d.prover.ProgramID() }
	for {
		typ, payload, err := attest.ReadFrame(conn)
		if err != nil || typ != attest.MsgChallenge {
			return
		}
		if !traced {
			if attest.HandleChallenge(conn, payload, lookup) != nil {
				return
			}
			continue
		}
		t0 := time.Now()
		ch, err := attest.DecodeChallenge(payload)
		if err != nil {
			return
		}
		t1 := time.Now()
		rep, f, err := tracedAttest(d.prover, *ch, nil, l)
		if err != nil {
			_ = attest.WriteFrame(conn, attest.MsgError, []byte("attestation failed"))
			continue
		}
		t2 := time.Now()
		b := attest.EncodeReport(rep)
		t3 := time.Now()
		// Device time ends before the write: net.Pipe returns from
		// Write only once this goroutine is scheduled again after the
		// node has read the frame, which measures the scheduler.
		l.addNs("fleet.device_ns", t3.Sub(t0))
		l.addNs("attest.codec_ns", t1.Sub(t0)+t3.Sub(t2))
		// The round is recorded before its report is sent, so the
		// sweep cannot return, and the pass take its snapshot, first.
		w.mu.Lock()
		if f != w.plan {
			w.bad++
		}
		w.samples = append(w.samples, sample{d: d, payload: attest.SignedPayload(rep), sig: rep.Sig, hash: rep.Hash})
		w.mu.Unlock()
		if attest.WriteFrame(conn, attest.MsgReport, b) != nil {
			return
		}
	}
}

func (w *fedSweep) setPass(traced bool, t *tally, l *layers) {
	w.mu.Lock()
	w.traced, w.t, w.l = traced, t, l
	w.wire, w.sent, w.dials, w.bad = 0, 0, 0, 0
	w.samples = nil
	w.mu.Unlock()
}

func (w *fedSweep) fsTotals() (syncs, syncNs, bytes uint64) {
	for _, f := range w.fsys {
		syncs += f.syncs.Load()
		syncNs += f.syncNs.Load()
		bytes += f.bytes.Load()
	}
	return
}

func (w *fedSweep) cacheTotals() (hits, misses uint64) {
	for _, n := range w.nodes {
		c := n.Service().Cache()
		hits += c.Hits()
		misses += c.Misses()
	}
	return
}

// pass runs one federated sweep over every device and checks that each
// device was verified exactly once and accepted.
func (w *fedSweep) pass(traced bool, t *tally, l *layers) {
	w.setPass(traced, t, l)
	syncs0, syncNs0, bytes0 := w.fsTotals()
	ctrl0 := w.ctrlBytes.Load()
	_, misses0 := w.cacheTotals()

	v, err := w.coord.Sweep(w.pid, w.input, false)

	syncs1, syncNs1, bytes1 := w.fsTotals()
	failed := fedDevices
	if err == nil && v.Healthy && v.Devices == fedDevices {
		failed = fedDevices - v.Accepted
	} else if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: fed-sweep:", err)
	}
	w.mu.Lock()
	sent, wire, dials, bad, samples := w.sent, w.wire, w.dials, w.bad, w.samples
	w.traced, w.t, w.l = false, nil, nil
	w.mu.Unlock()
	f := w.plan
	for i := 1; i < fedDevices; i++ {
		f.add(w.plan)
	}
	f.reportBytes = sent
	t.addFacts(fedDevices, f)
	t.mu.Lock()
	t.sweepFsyncs = append(t.sweepFsyncs, float64(syncs1-syncs0))
	t.sweepWAL = append(t.sweepWAL, float64(bytes1-bytes0))
	t.mu.Unlock()

	if traced {
		hits, misses := w.cacheTotals()
		l.add("fed.sweeps", 1)
		l.add("fed.ctrl_bytes", float64(w.ctrlBytes.Load()-ctrl0))
		l.add("fed.fsyncs", float64(syncs1-syncs0))
		l.add("fed.fsync_ns", float64(syncNs1-syncNs0))
		l.add("fleet.wire_bytes", float64(wire))
		l.add("fleet.dials", float64(dials))
		// Device verifiers answer repeat inputs from their own memo, so
		// the fleet cache sees lookups mostly while it warms: its hit
		// rate is reported over the node's lifetime.
		l.hi("fleet.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
		l.add("attest.golden_runs", float64(misses-misses0))
		if err == nil {
			l.add("attest.rejected", float64(v.Rejected))
		}
		for _, s := range samples {
			timeVerify(l, s.d.pub, s.payload, s.sig)
			if !replayRound(s.d.prover, w.input, nil, s.hash, l) {
				bad++
			}
		}
		for range samples {
			l.verdict()
		}
		failed += bad
		if failed > fedDevices {
			failed = fedDevices
		}
	}
	t.verdicts(fedDevices, failed)
}

func (w *fedSweep) close() {
	if w.coord != nil {
		w.coord.Close()
	}
	for _, n := range w.nodes {
		_ = n.Close()
	}
	w.serving.Wait()
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}

// countingFS is the nodes' filesystem: the real one, with writes,
// fsyncs and fsync time counted.
type countingFS struct {
	faultfs.OS
	syncs  atomic.Uint64
	syncNs atomic.Uint64
	bytes  atomic.Uint64
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := c.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) SyncDir(dir string) error {
	t0 := time.Now()
	err := c.OS.SyncDir(dir)
	c.synced(t0)
	return err
}

func (c *countingFS) synced(t0 time.Time) {
	c.syncNs.Add(uint64(time.Since(t0)))
	c.syncs.Add(1)
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(uint64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	f.fs.synced(t0)
	return err
}
