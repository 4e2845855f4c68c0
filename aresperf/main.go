// Command aresperf is the repository's benchmark. It spawns real
// ares-server processes on loopback, drives them from this one process
// through the public remote client and reconfigurer, checks every read
// and every key's history, and prints the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run). BENCHMARK.json at the
// repository root names the workloads and metrics; run it through
// run.sh, which builds both binaries:
//
//	bash aresperf/run.sh --workload abd-small-read --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The lines before it print the same metrics by name, with the tail
// latencies and failed_frac.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aresperf:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of the key, read/write and value-id draws")
		seconds   = flag.Float64("seconds", 30, "length of the timed window, summed over the rounds")
		trace     = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		serverBin = flag.String("server-bin", "", "ares-server binary (required)")
		workDir   = flag.String("work-dir", ".", "directory for data directories and traces")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *serverBin == "" {
		return fmt.Errorf("-server-bin is required")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	cfg := &runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, serverBin: *serverBin, workDir: *workDir}
	res, err := runBench(context.Background(), cfg)
	if err != nil {
		return err
	}
	metrics, tails := res.endToEnd()
	if cfg.trace {
		metrics, tails = res.perLayer(), nil
	}
	return report(os.Stdout, w.name, res, metrics, tails)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd derives the untraced run's metrics from the run's quiet
// blocks: latency quantiles over their pooled samples, throughput as the
// median of their closed-loop slices. The tail latencies are returned
// apart: they are printed by name but left out of the result line,
// because from one run's ~1000 samples of the rarer kind their spread
// across seeds reaches the largest regression bound a metric may have.
func (r *result) endToEnd() (metrics, tails map[string]metric) {
	var reads, writes, slices, reconfigs []float64
	for _, b := range quietBlocks(r.blocks) {
		reads = append(reads, b.readMs...)
		writes = append(writes, b.writeMs...)
		reconfigs = append(reconfigs, b.reconfigMs...)
		slices = append(slices, float64(b.closedOps)/b.closedSeconds)
	}
	for _, b := range quietBlocks(r.probeBlocks) {
		reconfigs = append(reconfigs, b.reconfigMs...)
	}
	metrics = map[string]metric{
		"read_p50_ms":     {quantile(reads, 0.50), "ms"},
		"write_p50_ms":    {quantile(writes, 0.50), "ms"},
		"max_ops_s":       {quantile(slices, 0.50), "1/s"},
		"setup_s":         {quantile(r.setupS, 0.50), "s"},
		"server_rss_mb":   {quantile(r.rssMiB, 0.50), "MiB"},
		"reconfig_p50_ms": {quantile(reconfigs, 0.50), "ms"},
		"reconfig_p90_ms": {quantile(reconfigs, 0.90), "ms"},
	}
	tails = map[string]metric{
		"read_p99_ms":  {quantile(reads, 0.99), "ms"},
		"write_p99_ms": {quantile(writes, 0.99), "ms"},
	}
	return metrics, tails
}

// quietBlocks returns the blocks in which the machine lost the least CPU
// time to other tenants: the quieter half, and every other block that lost
// under 2%. On a shared host a burst of stolen time slows every process at
// once and says nothing about the code under test.
func quietBlocks(blocks []*block) []*block {
	sorted := append([]*block(nil), blocks...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].stealFrac < sorted[j].stealFrac })
	n := (len(sorted) + 1) / 2
	for n < len(sorted) && sorted[n].stealFrac < 0.02 {
		n++
	}
	return sorted[:n]
}

// perLayer derives the traced run's metrics.
func (r *result) perLayer() map[string]metric {
	l := &r.layers
	s := &l.spans
	ops := float64(l.reads + l.writes)
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var envelopesPerFrame float64
	if frames := l.clientDelta["ares_wire_encodes_total"]; frames > 0 {
		envelopesPerFrame = float64(l.invokes) / float64(frames)
	}
	fsyncP50 := 0.0
	var fsyncs int64
	for _, c := range l.fsyncCounts {
		fsyncs += c
	}
	if fsyncs > 0 {
		var cum int64
		for i, c := range l.fsyncCounts {
			cum += c
			if 2*cum >= fsyncs {
				if i < len(l.fsyncBounds) {
					fsyncP50 = float64(l.fsyncBounds[i]) / 1e6
				} else {
					fsyncP50 = float64(l.fsyncBounds[len(l.fsyncBounds)-1]) / 1e6
				}
				break
			}
		}
	}
	untraced, traced := quantile(r.readMsByTrace[0], 0.5), quantile(r.readMsByTrace[1], 0.5)
	return map[string]metric{
		"transport.invokes_per_op":         {div(float64(s.invokes), float64(s.ops)), "count"},
		"transport.invoke_p50_ms":          {quantile(s.invokeMs, 0.50), "ms"},
		"transport.invoke_p99_ms":          {quantile(s.invokeMs, 0.99), "ms"},
		"transport.payload_bytes_per_op":   {div(float64(s.payload), float64(s.ops)), "B"},
		"transport.frames_per_op":          {div(float64(l.clientDelta["ares_wire_encodes_total"]), ops), "count"},
		"transport.envelopes_per_frame":    {envelopesPerFrame, "count"},
		"recon.read_config_ms_per_op":      {div(s.readConfigMs, float64(s.ops)), "ms"},
		"recon.read_config_invokes_per_op": {div(float64(s.readConfigInvokes), float64(s.ops)), "count"},
		"dap.get_tag_ms_per_write":         {div(s.getTagMs, float64(s.writes)), "ms"},
		"dap.get_data_ms_per_read":         {div(s.getDataMs, float64(s.reads)), "ms"},
		"dap.put_data_ms_per_op":           {div(s.putDataMs, float64(s.ops)), "ms"},
		"dap.bytes_per_op":                 {div(float64(s.dapBytes), float64(s.ops)), "B"},
		"core.self_ms_per_op":              {div(s.selfMs, float64(s.ops)), "ms"},
		"core.read_rounds_per_read":        {div(float64(l.clientDelta["ares_client_read_rounds_total"]), float64(l.reads)), "count"},
		"core.fast_path_frac":              {div(float64(l.clientDelta["ares_client_read_fastpaths_total"]), float64(l.reads)), "ratio"},
		"core.retries_per_op":              {div(float64(l.clientDelta["ares_client_retries_total"]), ops), "count"},
		"cpu.client_ms_per_op":             {div(float64(l.clientTicks)*ms(clockTick), ops), "ms"},
		"cpu.server_ms_per_op":             {div(float64(l.serverTicks)*ms(clockTick), ops), "ms"},
		"cpu.client.codec_frac":            {l.client.frac("codec"), "ratio"},
		"cpu.server.codec_frac":            {l.server.frac("codec"), "ratio"},
		"cpu.client.erasure_frac":          {l.client.frac("erasure"), "ratio"},
		"cpu.server.wal_frac":              {l.server.frac("wal"), "ratio"},
		"cpu.server.gc_frac":               {l.server.frac("gc"), "ratio"},
		"wal.appends_per_write":            {div(float64(l.serverDelta["ares_wal_appends_total"]), float64(l.writes)), "count"},
		"wal.bytes_per_user_byte":          {div(float64(l.serverDelta["ares_wal_appended_bytes_total"]), float64(l.writes)*float64(r.valueSize)), "ratio"},
		"wal.fsyncs_per_write":             {div(float64(l.serverDelta["ares_wal_fsyncs_total"]), float64(l.writes)), "count"},
		"wal.fsync_p50_ms":                 {fsyncP50, "ms"},
		"recon.invokes_per_reconfig":       {div(float64(s.reconfigInvokes), float64(s.reconfigs)), "count"},
		"recon.paxos_ms_per_reconfig":      {div(s.paxosMs, float64(s.reconfigs)), "ms"},
		"recon.transfer_ms_per_reconfig":   {div(s.transferMs, float64(s.reconfigs)), "ms"},
		"host.live_states_per_key":         {div(l.liveStates, l.liveStatesDen), "count"},
		"generator.late_p99_ms":            {quantile(r.lateMs, 0.99), "ms"},
		"trace.overhead_frac":              {div(traced, untraced) - 1, "ratio"},
	}
}

// report prints every metric by name with its unit, then the result line,
// which carries metrics but not tails.
func report(out *os.File, workload string, r *result, metrics, tails map[string]metric) error {
	for _, m := range []map[string]metric{metrics, tails} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "%s %-34s %14.4f %s\n", workload, n, m[n].Value, m[n].Unit)
		}
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(out, "%s %-34s %14.4f ratio (%d of %d operations)\n", workload, "failed_frac", failedFrac, r.failed, r.attempted)
	quiet := quietBlocks(r.blocks)
	var reads, writes, reconfigs int
	var closed int64
	for _, b := range append(quiet, quietBlocks(r.probeBlocks)...) {
		reads, writes, reconfigs, closed = reads+len(b.readMs), writes+len(b.writeMs), reconfigs+len(b.reconfigMs), closed+b.closedOps
	}
	var steal []float64
	for _, b := range r.blocks {
		steal = append(steal, b.stealFrac)
	}
	fmt.Fprintf(out, "%s samples: %d of %d blocks kept, CPU stolen per block %.3f\n", workload, len(quiet), len(r.blocks), steal)
	fmt.Fprintf(out, "%s samples: %d reads, %d writes (open loop); %d closed-loop ops; %d reconfigs\n",
		workload, reads, writes, closed, reconfigs)
	if r.firstErr != nil {
		fmt.Fprintf(os.Stderr, "first failed operation: %v\n", r.firstErr)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
