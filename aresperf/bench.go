package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/history"
	"github.com/ares-storage/ares/internal/obs"
	"github.com/ares-storage/ares/internal/recon"
	"github.com/ares-storage/ares/internal/transport"
)

// Load shape. A run is split into rounds; each round spawns a fresh
// cluster (so set-up is measured once per round), preloads every key, and
// spends its share of the timed window in blocks. A block is an open-loop
// slice followed by a short closed-loop slice, so the throughput samples
// are spread over the whole window; max_ops_s is their median.
const (
	rounds          = 2
	blocksPerRound  = 4
	closedShare     = 0.15 // of each block, spent in its closed-loop slice
	closedWorkers   = 4    // operations outstanding in the closed-loop leg
	maxOutstanding  = 256  // open-loop cap; beyond it the generator runs late
	preloadWorkers  = 32
	reconfigsPerRun = 100 // quiescent reconfigurations on workloads without a walk
	opDeadline      = 5 * time.Second
	reconDeadline   = 10 * time.Second
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	w         workloadSpec
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	workDir   string
	// corruptRead, when set, flips one byte of the next non-empty value
	// read, before it is checked. The self-test uses it to show that the
	// checker catches a corrupt read.
	corruptRead atomic.Bool
}

// Streams number the independent seeded generators of a run.
const (
	legPreload = iota + 1
	legOpen
	legClosed
	legWalk
)

func stream(round, leg, worker int) uint64 {
	return uint64(round)<<32 | uint64(leg)<<16 | uint64(worker)
}

// subSeed derives the seed of one generator from the run's seed.
func subSeed(seed int64, s uint64) int64 { return int64(splitmix(uint64(seed) ^ splitmix(s))) }

// result accumulates the measurements of every round of a run.
type result struct {
	mu                sync.Mutex
	blocks            []*block // the timed window's
	probeBlocks       []*block // the quiescent reconfigurations'
	lateMs            []float64
	readMsByTrace     [2][]float64 // open-loop reads, [untraced, traced]
	attempted, failed int64
	setupS, rssMiB    []float64
	problems          []string
	firstErr          error
	layers            layerTotals
	valueSize         int
}

// block holds one open-loop slice's latencies, timed from due time, the
// following closed-loop slice's completions, the reconfigurations that
// finished meanwhile, and the share of the machine's CPU time the
// hypervisor gave to other tenants over the block.
type block struct {
	readMs, writeMs []float64
	reconfigMs      []float64
	closedOps       int64
	closedSeconds   float64
	stealFrac       float64
}

// layerTotals holds the traced run's raw per-layer sums.
type layerTotals struct {
	spans                     spanStats
	client, server            cpuShares
	clientTicks, serverTicks  int64
	reads, writes             int64 // completed in timed windows
	invokes                   int64
	clientDelta, serverDelta  map[string]int64
	fsyncBounds               []int64
	fsyncCounts               []int64
	liveStates, liveStatesDen float64
}

func (r *result) problem(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// attempt counts one timed operation and, when it failed, the failure.
func (r *result) attempt(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

type keyState struct {
	name string
	conf ares.Config
	rec  *history.Recorder

	mu   sync.Mutex
	free []pooledClient
	made int

	// Used only by the single reconfiguring goroutine.
	recon  *ares.Reconfigurer
	gen    int
	walked bool
}

// pooledClient is one reader/writer of a key. Operations on a key that
// overlap use different clients, as independent users would.
type pooledClient struct {
	id ares.ProcessID
	c  *ares.Client
}

func (k *keyState) get(rpc transport.Client) (pooledClient, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if n := len(k.free); n > 0 {
		pc := k.free[n-1]
		k.free = k.free[:n-1]
		return pc, nil
	}
	k.made++
	id := ares.ProcessID(fmt.Sprintf("perf/%s/%d", k.name, k.made))
	c, err := ares.NewRemoteClient(id, k.conf, rpc)
	return pooledClient{id: id, c: c}, err
}

func (k *keyState) put(pc pooledClient) {
	k.mu.Lock()
	k.free = append(k.free, pc)
	k.mu.Unlock()
}

// round is one cluster's lifetime within a run.
type round struct {
	cfg  *runConfig
	res  *result
	idx  int
	cl   *cluster
	rpc  transport.Client
	tr   *tracer // nil in untraced runs
	keys []*keyState
	cur  *block // the block in progress; guarded by res.mu

	// Generator state, continued from block to block.
	openDraws   *opDraws
	openSeq     uint64
	closedDraws [closedWorkers]*opDraws
	closedSeq   [closedWorkers]uint64
}

// runBench runs every round of cfg and returns the accumulated result.
// An error means the run could not be carried out at all.
func runBench(ctx context.Context, cfg *runConfig) (*result, error) {
	res := &result{valueSize: cfg.w.valueSize}
	runDir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	blockDur := time.Duration(cfg.seconds / (rounds * blocksPerRound) * float64(time.Second))
	if blockDur < 200*time.Millisecond {
		return nil, fmt.Errorf("-seconds %g is too short for %d blocks", cfg.seconds, rounds*blocksPerRound)
	}
	var tr *tracer
	var tracePath string
	start := time.Now()
	if cfg.trace {
		tr = &tracer{}
		tracePath = filepath.Join(cfg.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
			return nil, err
		}
		if err := os.WriteFile(tracePath, nil, 0o644); err != nil {
			return nil, err
		}
	}
	for i := 0; i < rounds; i++ {
		r := &round{cfg: cfg, res: res, idx: i, tr: tr}
		if err := r.run(ctx, filepath.Join(runDir, fmt.Sprint(i)), blockDur); err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		if tr != nil {
			spans := tr.take()
			res.layers.spans.add(spans)
			if err := writeSpans(tracePath, start, spans); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func (r *round) run(ctx context.Context, dataDir string, blockDur time.Duration) error {
	w := r.cfg.w
	setupStart := time.Now()
	cl, err := startCluster(r.cfg.serverBin, w.servers, w.fsync, dataDir)
	if err != nil {
		return err
	}
	r.cl = cl
	defer cl.stop()
	tcp := ares.NewTCPClient("aresperf", cl.book)
	defer tcp.Close()
	r.rpc = tcp
	if r.tr != nil {
		r.rpc = tracedRPC{inner: tcp, t: r.tr}
	}
	template := w.start
	template.ID = "perf/{key}/c0"
	template.Servers = cl.ids
	installCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = core.RemoteInstaller(r.rpc)(installCtx, template)
	cancel()
	if err != nil {
		return fmt.Errorf("installing template: %w", err)
	}
	r.keys = make([]*keyState, w.keys)
	for i := range r.keys {
		name := keyName(i)
		r.keys[i] = &keyState{name: name, conf: template.ForKey(name), rec: history.NewRecorder()}
	}
	if err := r.preload(ctx); err != nil {
		return err
	}
	setup := time.Since(setupStart).Seconds()

	if err := r.window(ctx, blockDur); err != nil {
		return err
	}

	// After the window: quiescent reconfigurations where no walk ran, a read
	// of every key, and the checks.
	if w.walk == nil {
		rng := rand.New(rand.NewSource(subSeed(r.cfg.seed, stream(r.idx, legWalk, 0))))
		perBlock := (reconfigsPerRun + rounds*blocksPerRound - 1) / (rounds * blocksPerRound)
		for b := 0; b < blocksPerRound; b++ {
			blk := &block{}
			r.inBlock(blk, func() {
				for i := 0; i < perBlock; i++ {
					r.reconfigure(ctx, rng.Intn(len(r.keys)), false)
				}
			})
			r.res.probeBlocks = append(r.res.probeBlocks, blk)
		}
	}
	if err := r.sweep(ctx); err != nil {
		return err
	}
	rss, err := cl.peakRSSMiB()
	if err != nil {
		return err
	}
	cl.stop()
	r.verify()

	r.res.mu.Lock()
	r.res.setupS = append(r.res.setupS, setup)
	r.res.rssMiB = append(r.res.rssMiB, rss)
	r.res.mu.Unlock()
	return nil
}

// window runs the round's timed blocks, with the reconfiguration walk
// alongside when the workload has one. A traced run also differences the
// counters and profiles every process over the window.
func (r *round) window(ctx context.Context, blockDur time.Duration) error {
	w := r.cfg.w
	r.openDraws = newOpDraws(w, subSeed(r.cfg.seed, stream(r.idx, legOpen, 0)))
	for i := range r.closedDraws {
		r.closedDraws[i] = newOpDraws(w, subSeed(r.cfg.seed, stream(r.idx, legClosed, i)))
	}
	closedDur := time.Duration(float64(blockDur) * closedShare)
	var before windowSnap
	var stopProfiles func() error
	if r.tr != nil {
		var err error
		if before, err = r.snapshot(); err != nil {
			return err
		}
		// pprof takes whole seconds; the window is a little longer.
		if stopProfiles, err = r.startProfiles(int(blockDur * blocksPerRound / time.Second)); err != nil {
			return err
		}
	}
	stopWalk := make(chan struct{})
	walkDone := make(chan struct{})
	go func() {
		defer close(walkDone)
		if w.walk != nil {
			r.walk(ctx, stopWalk)
		}
	}()
	for b := 0; b < blocksPerRound; b++ {
		blk := &block{}
		r.inBlock(blk, func() {
			// Traced runs trace every other open-loop slice, to compare.
			r.openLoop(ctx, blockDur-closedDur, blk, r.tr != nil && (b+r.idx)%2 == 1)
			r.closedLoop(ctx, closedDur, blk)
		})
		r.res.mu.Lock()
		r.res.blocks = append(r.res.blocks, blk)
		r.res.mu.Unlock()
	}
	close(stopWalk)
	<-walkDone
	if r.tr == nil {
		return nil
	}
	if err := stopProfiles(); err != nil {
		return err
	}
	after, err := r.snapshot()
	if err != nil {
		return err
	}
	r.res.mu.Lock()
	r.res.layers.addWindow(before, after, w)
	r.res.mu.Unlock()
	return nil
}

// inBlock makes blk the block in progress while fn runs, and records the
// share of the machine's CPU time stolen meanwhile. Without /proc/stat the
// share stays 0 and every block counts as quiet.
func (r *round) inBlock(blk *block, fn func()) {
	r.res.mu.Lock()
	r.cur = blk
	r.res.mu.Unlock()
	steal0, total0, err0 := machineSteal()
	fn()
	steal1, total1, err1 := machineSteal()
	if err0 == nil && err1 == nil && total1 > total0 {
		blk.stealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
}

// startProfiles starts a CPU profile of this process and of every server
// for secs seconds. The returned function stops the client profile, waits
// for the servers' and folds all of them into the run's CPU shares.
func (r *round) startProfiles(secs int) (func() error, error) {
	var profiles [][]byte
	var profErr error
	profDone := make(chan struct{})
	go func() {
		defer close(profDone)
		profiles, profErr = r.cl.cpuProfiles(secs)
	}()
	var client bytes.Buffer
	if err := pprof.StartCPUProfile(&client); err != nil {
		<-profDone
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		<-profDone
		if profErr != nil {
			return fmt.Errorf("server profiles: %w", profErr)
		}
		r.res.mu.Lock()
		defer r.res.mu.Unlock()
		if err := r.res.layers.client.addProfile(client.Bytes()); err != nil {
			return err
		}
		for _, p := range profiles {
			if err := r.res.layers.server.addProfile(p); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// do runs one read or write on key and checks what a read returns.
func (r *round) do(ctx context.Context, key int, write bool, id [idLen]byte, traced bool) error {
	ks := r.keys[key]
	pc, err := ks.get(r.rpc)
	if err != nil {
		return err
	}
	defer ks.put(pc)
	ctx, cancel := context.WithTimeout(ctx, opDeadline)
	defer cancel()
	var spanID uint64
	start := time.Now()
	if traced {
		ctx, spanID = r.tr.beginOp(ctx)
	}
	if write {
		v := makeValue(r.cfg.w.valueSize, id)
		p := ks.rec.BeginWrite(pc.id, id[:])
		t, err := pc.c.Write(ctx, v)
		if traced {
			r.tr.endOp(spanID, "write", start)
		}
		if err != nil {
			p.Fail()
			return err
		}
		p.Done(t, id[:])
		return nil
	}
	p := ks.rec.BeginRead(pc.id)
	pair, err := pc.c.Read(ctx)
	if traced {
		r.tr.endOp(spanID, "read", start)
	}
	if err != nil {
		p.Fail()
		return err
	}
	v := pair.Value
	if len(v) > 0 && r.cfg.corruptRead.CompareAndSwap(true, false) {
		v = append(v[:0:0], v...)
		v[len(v)-1] ^= 0x01
	}
	got, err := checkValue(v, r.cfg.w.valueSize)
	if err != nil {
		r.res.problem("key %s: corrupt read: %v", ks.name, err)
		p.Fail()
		return nil
	}
	p.Done(pair.Tag, got)
	return nil
}

// preload writes every key once with preloadWorkers writes in flight.
func (r *round) preload(ctx context.Context) error {
	return r.forEachKey(ctx, preloadWorkers, func(key int) error {
		return r.do(ctx, key, true, valueID(r.cfg.seed, stream(r.idx, legPreload, 0), uint64(key)), false)
	})
}

// sweep reads back this round's share of the keys, so that every key is
// read once per run: a preloaded key that reads back empty or corrupt
// fails the history check.
func (r *round) sweep(ctx context.Context) error {
	return r.forEachKey(ctx, preloadWorkers, func(key int) error {
		if key%rounds != r.idx {
			return nil
		}
		return r.do(ctx, key, false, [idLen]byte{}, false)
	})
}

func (r *round) forEachKey(ctx context.Context, workers int, fn func(key int) error) error {
	var next atomic.Int64
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			for {
				k := int(next.Add(1) - 1)
				if k >= len(r.keys) {
					errs <- nil
					return
				}
				if err := fn(k); err != nil {
					errs <- fmt.Errorf("key %s: %w", r.keys[k].name, err)
					return
				}
			}
		}()
	}
	var first error
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
			next.Store(int64(len(r.keys))) // stop the other workers
		}
	}
	return first
}

// openLoop issues operations at the workload's fixed rate, evenly spaced,
// for dur. Each operation is timed from when it was due.
func (r *round) openLoop(ctx context.Context, dur time.Duration, blk *block, traced bool) {
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 1; ; i++ {
		offset := time.Duration(float64(i) / r.cfg.w.rate * float64(time.Second))
		if offset >= dur {
			break
		}
		due := start.Add(offset)
		time.Sleep(time.Until(due))
		key, write := r.openDraws.draw()
		sem <- struct{}{}
		late := time.Since(due)
		id := valueID(r.cfg.seed, stream(r.idx, legOpen, 0), r.openSeq)
		r.openSeq++
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := r.do(ctx, key, write, id, traced)
			lat := ms(time.Since(due))
			<-sem
			r.res.attempt(err)
			if err != nil {
				return
			}
			r.res.mu.Lock()
			defer r.res.mu.Unlock()
			r.res.lateMs = append(r.res.lateMs, ms(late))
			if write {
				blk.writeMs = append(blk.writeMs, lat)
				return
			}
			blk.readMs = append(blk.readMs, lat)
			if r.tr != nil {
				t := 0
				if traced {
					t = 1
				}
				r.res.readMsByTrace[t] = append(r.res.readMsByTrace[t], lat)
			}
		}()
	}
	wg.Wait()
}

// closedLoop keeps closedWorkers operations outstanding for dur and counts
// those that complete inside it.
func (r *round) closedLoop(ctx context.Context, dur time.Duration, blk *block) {
	deadline := time.Now().Add(dur)
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < closedWorkers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				key, write := r.closedDraws[worker].draw()
				id := valueID(r.cfg.seed, stream(r.idx, legClosed, worker), r.closedSeq[worker])
				r.closedSeq[worker]++
				err := r.do(ctx, key, write, id, r.tr != nil)
				r.res.attempt(err)
				if err == nil && time.Now().Before(deadline) {
					done.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	blk.closedOps = done.Load()
	blk.closedSeconds = dur.Seconds()
}

// walk reconfigures random keys one at a time at the workload's walk
// rate, moving each between the workload's start configuration and its
// walk configuration. A reconfiguration that overruns its slot delays the
// next one; missed slots are not made up.
func (r *round) walk(ctx context.Context, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(subSeed(r.cfg.seed, stream(r.idx, legWalk, 0))))
	tick := time.NewTicker(time.Duration(float64(time.Second) / r.cfg.w.walkRate))
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		r.reconfigure(ctx, rng.Intn(len(r.keys)), r.tr != nil)
	}
}

// reconfigure moves key to a fresh configuration through the key's own
// reconfigurer: the walk configuration or back on a walking workload, the
// same shape under a new id otherwise.
func (r *round) reconfigure(ctx context.Context, key int, traced bool) {
	ks := r.keys[key]
	if ks.recon == nil {
		g, err := ares.NewRemoteReconfigurer(ares.ProcessID("perf-recon/"+ks.name), ks.conf, r.rpc, ares.ReconOptions{DirectTransfer: true})
		if err != nil {
			r.res.attempt(err)
			return
		}
		ks.recon = g
	}
	target := r.cfg.w.start
	if r.cfg.w.walk != nil && !ks.walked {
		target = *r.cfg.w.walk
	}
	target.Servers = r.cl.ids
	ks.gen++
	target.ID = ares.ConfigID(fmt.Sprintf("perf/%s/r%d", ks.name, ks.gen))
	ctx, cancel := context.WithTimeout(ctx, reconDeadline)
	defer cancel()
	var spanID uint64
	start := time.Now()
	if traced {
		ctx, spanID = r.tr.beginOp(ctx)
	}
	_, err := ks.recon.Reconfig(ctx, target)
	lat := ms(time.Since(start))
	if traced {
		r.tr.endOp(spanID, "reconfig", start)
	}
	if errors.Is(err, recon.ErrSameConfiguration) {
		err = nil
	}
	r.res.attempt(err)
	if err != nil {
		return
	}
	if r.cfg.w.walk != nil {
		ks.walked = !ks.walked
	}
	r.res.mu.Lock()
	r.cur.reconfigMs = append(r.cur.reconfigMs, lat)
	r.res.mu.Unlock()
}

// verify checks each key's history for linearizability.
func (r *round) verify() {
	for _, ks := range r.keys {
		rep := history.Verify(ks.rec.Ops(), history.CheckOptions{})
		if !rep.Linearizable {
			r.res.problem("key %s: history of %d ops not linearizable (%s): %v", ks.name, rep.Ops, rep.Method, rep.Violations)
		}
	}
}

// windowSnap is the state of every counter a traced run differences over
// the timed window.
type windowSnap struct {
	client             obs.Snapshot
	servers            []obs.Snapshot
	clientTicks, ticks int64
	invokes            int64
}

func (r *round) snapshot() (windowSnap, error) {
	var s windowSnap
	var err error
	s.invokes = r.tr.invokes.Load()
	s.client = obs.Default.Snapshot()
	if s.clientTicks, err = procCPUTicks("self"); err != nil {
		return s, err
	}
	if s.ticks, err = r.cl.cpuTicks(); err != nil {
		return s, err
	}
	s.servers, err = r.cl.scrape()
	return s, err
}

func (l *layerTotals) addWindow(before, after windowSnap, w workloadSpec) {
	if l.clientDelta == nil {
		l.clientDelta = make(map[string]int64)
		l.serverDelta = make(map[string]int64)
	}
	client := obs.CounterDelta(before.client, after.client)
	for k, v := range client {
		l.clientDelta[k] += v
	}
	l.reads += client["ares_client_read_ops_total"]
	l.writes += client["ares_client_write_ops_total"]
	l.clientTicks += after.clientTicks - before.clientTicks
	l.serverTicks += after.ticks - before.ticks
	l.invokes += after.invokes - before.invokes
	for i := range after.servers {
		for k, v := range obs.CounterDelta(before.servers[i], after.servers[i]) {
			l.serverDelta[k] += v
		}
		h1, h0 := after.servers[i].Histograms["ares_wal_fsync_seconds"], before.servers[i].Histograms["ares_wal_fsync_seconds"]
		if l.fsyncCounts == nil && len(h1.Counts) > 0 {
			l.fsyncBounds = h1.Bounds
			l.fsyncCounts = make([]int64, len(h1.Counts))
		}
		for j := range h1.Counts {
			if j < len(h0.Counts) && j < len(l.fsyncCounts) {
				l.fsyncCounts[j] += h1.Counts[j] - h0.Counts[j]
			}
		}
		l.liveStates += float64(after.servers[i].Gauges["ares_host_materialized_states"])
		l.liveStatesDen += float64(w.keys)
	}
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}
