package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	ares "github.com/ares-storage/ares"
	"github.com/ares-storage/ares/internal/core"
	"github.com/ares-storage/ares/internal/obs"
	"github.com/ares-storage/ares/internal/transport"
	"github.com/ares-storage/ares/internal/types"
)

// cluster is one set of ares-server processes on loopback. Each server has
// its own data directory and its own ops HTTP address, so the WAL and host
// instruments of every server can be scraped separately.
type cluster struct {
	ids     []types.ProcessID
	book    map[types.ProcessID]string
	opsAddr []string
	procs   []*exec.Cmd
	logs    []*tailBuffer
}

// tailBuffer keeps the last few KiB a server printed, for error reports.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > 8<<10 {
		t.b = append(t.b[:0], t.b[len(t.b)-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}

// reservePorts binds n loopback ports and releases them for the servers to
// take. Another process could grab one in between; on a bench host that is
// rare enough that a failed spawn is the right answer.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// startCluster spawns n servers. fsync selects the WAL's -fsync flag; the
// WAL itself is always on, in dataDir/<id>. It returns once every server
// answers on its control service.
func startCluster(bin string, n int, fsync bool, dataDir string) (*cluster, error) {
	ports, err := reservePorts(2 * n)
	if err != nil {
		return nil, err
	}
	c := &cluster{book: make(map[types.ProcessID]string, n)}
	peers := make([]string, n)
	for i := 0; i < n; i++ {
		id := types.ProcessID(fmt.Sprintf("s%d", i+1))
		c.ids = append(c.ids, id)
		c.book[id] = ports[i]
		c.opsAddr = append(c.opsAddr, ports[n+i])
		peers[i] = fmt.Sprintf("%s=%s", id, ports[i])
	}
	for i, id := range c.ids {
		cmd := exec.Command(bin,
			"-id", string(id),
			"-listen", c.book[id],
			"-peers", strings.Join(peers, ","),
			"-data-dir", filepath.Join(dataDir, string(id)),
			"-fsync="+strconv.FormatBool(fsync),
			"-ops-addr", c.opsAddr[i],
		)
		log := &tailBuffer{}
		cmd.Stdout, cmd.Stderr = log, log
		// A benchmark killed from outside takes its servers with it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			c.stop()
			return nil, fmt.Errorf("starting %s: %w", id, err)
		}
		c.procs = append(c.procs, cmd)
		c.logs = append(c.logs, log)
	}
	if err := c.awaitReady(); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// awaitReady pings every server's control service until it answers; any
// reply, an application error included, means the data plane is serving.
func (c *cluster) awaitReady() error {
	rpc := ares.NewTCPClient("aresperf-probe", c.book)
	defer rpc.Close()
	deadline := time.Now().Add(20 * time.Second)
	for i, id := range c.ids {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			_, err := rpc.Invoke(ctx, id, transport.Request{Service: core.CtlServiceName, Config: core.CtlConfigKey, Type: "ping"})
			cancel()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("server %s not ready after 20s: %v\n%s", id, err, c.logs[i])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return nil
}

// stop sends SIGINT to every server, waits for all of them, and SIGKILLs
// any that has not exited after five seconds.
func (c *cluster) stop() {
	for _, cmd := range c.procs {
		_ = cmd.Process.Signal(os.Interrupt)
	}
	done := make(chan struct{})
	go func() {
		for _, cmd := range c.procs {
			_ = cmd.Wait()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		for _, cmd := range c.procs {
			_ = cmd.Process.Kill()
		}
		<-done
	}
	c.procs = nil
}

// peakRSSMiB sums VmHWM, the peak resident set, over the live servers.
func (c *cluster) peakRSSMiB() (float64, error) {
	var kib int64
	for _, cmd := range c.procs {
		v, err := procStatusKiB(cmd.Process.Pid, "VmHWM:")
		if err != nil {
			return 0, err
		}
		kib += v
	}
	return float64(kib) / 1024, nil
}

// cpuTicks sums user+system CPU ticks over the live servers.
func (c *cluster) cpuTicks() (int64, error) {
	var sum int64
	for _, cmd := range c.procs {
		t, err := procCPUTicks(strconv.Itoa(cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// scrape fetches every server's registry snapshot from /metrics.json.
func (c *cluster) scrape() ([]obs.Snapshot, error) {
	out := make([]obs.Snapshot, len(c.opsAddr))
	for i, addr := range c.opsAddr {
		body, err := httpGet("http://"+addr+"/metrics.json", 10*time.Second)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(body, &out[i]); err != nil {
			return nil, fmt.Errorf("decoding %s metrics: %w", c.ids[i], err)
		}
	}
	return out, nil
}

// cpuProfiles captures a CPU profile of d whole seconds from every server
// at once, through the ops surface's pprof endpoint.
func (c *cluster) cpuProfiles(d int) ([][]byte, error) {
	out := make([][]byte, len(c.opsAddr))
	errs := make(chan error, len(c.opsAddr))
	for i, addr := range c.opsAddr {
		go func(i int, addr string) {
			b, err := httpGet(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", addr, d), time.Duration(d+20)*time.Second)
			out[i] = b
			errs <- err
		}(i, addr)
	}
	var first error
	for range c.opsAddr {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return out, first
}

func httpGet(url string, timeout time.Duration) ([]byte, error) {
	client := http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// procCPUTicks returns utime+stime of a process ("self" or a pid), in
// clock ticks.
func procCPUTicks(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// counted from the closing parenthesis.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%s/stat", pid)
	}
	return utime + stime, nil
}

// machineSteal returns the steal and total CPU ticks of the machine from
// /proc/stat: time the hypervisor gave this machine's CPUs to other
// guests, and all time.
func machineSteal() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += v
	}
	steal, err = strconv.ParseInt(f[8], 10, 64)
	return steal, total, err
}

// clockTick is USER_HZ, the unit of /proc CPU times on Linux.
const clockTick = 10 * time.Millisecond

func procStatusKiB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}
