package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// The self-test runs every workload briefly against real servers, traced,
// and checks that each metric BENCHMARK.json names is reported, that no
// operation fails, and that a read corrupted on purpose fails the check.
// Run it from this directory: go test ./...

func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server processes")
	}
	manifest := readManifest(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "ares-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ares-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building ares-server: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := &runConfig{w: w, seed: 7, seconds: 4, trace: true, serverBin: bin, workDir: t.TempDir()}
			// One workload reads a corrupted value on purpose.
			corrupt := w.name == "treas-large-write"
			cfg.corruptRead.Store(corrupt)
			res, err := runBench(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Errorf("%d of %d operations failed; first: %v", res.failed, res.attempted, res.firstErr)
			}
			e2e, tails := res.endToEnd()
			for _, name := range []string{"read_p99_ms", "write_p99_ms"} {
				if _, ok := tails[name]; !ok {
					t.Errorf("tail latency %s not reported", name)
				}
			}
			for kind, got := range map[string]map[string]metric{"end_to_end": e2e, "per_layer": res.perLayer()} {
				for _, name := range manifest[kind] {
					if _, ok := got[name]; !ok {
						t.Errorf("%s metric %s not reported", kind, name)
					}
				}
				if len(got) != len(manifest[kind]) {
					t.Errorf("%d %s metrics reported, BENCHMARK.json names %d", len(got), kind, len(manifest[kind]))
				}
			}
			switch {
			case corrupt && (len(res.problems) != 1 || !strings.Contains(res.problems[0], "corrupt read")):
				t.Errorf("corrupted read not caught exactly once: %q", res.problems)
			case !corrupt && len(res.problems) != 0:
				t.Errorf("checks failed: %q", res.problems)
			}
		})
	}
}

// readManifest returns the metric names BENCHMARK.json lists, by section.
func readManifest(t *testing.T) map[string][]string {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	names := make(map[string][]string)
	for _, kind := range []string{"end_to_end", "per_layer"} {
		var list []struct{ Name string }
		if err := json.Unmarshal(m[kind], &list); err != nil {
			t.Fatal(err)
		}
		for _, e := range list {
			names[kind] = append(names[kind], e.Name)
		}
	}
	return names
}

func TestCheckValueCatchesCorruption(t *testing.T) {
	v := makeValue(4096, valueID(3, 1, 2))
	id, err := checkValue(v, 4096)
	if err != nil || !bytes.Equal(id, v[:idLen]) {
		t.Fatalf("intact value: id %x, err %v", id, err)
	}
	for _, i := range []int{0, idLen, 2000, 4095} {
		bad := append(v[:0:0], v...)
		bad[i] ^= 0x80
		if _, err := checkValue(bad, 4096); err == nil {
			t.Errorf("flipped byte %d not caught", i)
		}
	}
	if _, err := checkValue(v[:4000], 4096); err == nil {
		t.Error("truncated value not caught")
	}
}

func TestCPUProfileParses(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := uint64(1)
	for time.Now().Before(deadline) {
		x = splitmix(x)
	}
	pprof.StopCPUProfile()
	var s cpuShares
	if err := s.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if s.total == 0 {
		t.Fatalf("no CPU time in a profile of a busy loop (x=%d)", x)
	}
}
