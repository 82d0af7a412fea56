package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pimnw/internal/obs"
)

// paths are the directories one benchmark process works in, all inside
// the module checkout: build outputs and scratch under .bench_build,
// logs, traces and result files under bench/out.
type paths struct {
	root  string // module root (holds go.mod and cmd/alignd)
	build string // .bench_build: binaries
	run   string // .bench_build/run-<pid>: addr files, cache dirs; removed at exit
	out   string // bench/out: logs, traces, BENCH_<sha>.json
}

// findPaths locates the module root from the working directory (the root
// itself under `go run ./bench`, bench/ under `go test`) and creates the
// working directories.
func findPaths() (*paths, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "alignd", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				break
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("bench: no module root with cmd/alignd above the working directory")
		}
		dir = parent
	}
	p := &paths{
		root:  dir,
		build: filepath.Join(dir, ".bench_build"),
		out:   filepath.Join(dir, "bench", "out"),
	}
	p.run = filepath.Join(p.build, "run-"+strconv.Itoa(os.Getpid()))
	for _, d := range []string{p.run, p.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// buildAlignd compiles the daemon once per benchmark process. The go
// tool's own staleness check makes the repeat a sub-second no-op.
func buildAlignd(p *paths) (string, error) {
	bin := filepath.Join(p.build, "alignd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/alignd")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: building cmd/alignd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is one spawned alignd.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	logf *os.File
	http *http.Client // control-plane client (healthz, scrapes), never the load client
	// exited closes once cmd.Wait has returned; ProcessState is readable
	// after it.
	exited chan struct{}
}

// startDaemon spawns alignd for a workload on a free port and waits for
// /healthz. Its stderr goes to bench/out/<workload>.log. dir is a fresh
// scratch directory for the address file, the cache and its config.
func startDaemon(bin string, w *workload, p *paths, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain-wait", "10ms"}
	args = append(args, w.daemonFlags()...)
	if w.cached {
		cfgFile := filepath.Join(dir, "alignd.yaml")
		cfg := fmt.Sprintf("cache:\n  hot_entries: %d\n", cacheHotEntries)
		if err := os.WriteFile(cfgFile, []byte(cfg), 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-config", cfgFile, "-cache-dir", filepath.Join(dir, "cache"))
	}
	logf, err := os.OpenFile(filepath.Join(p.out, w.name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.Stdout = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, logf: logf, http: &http.Client{Timeout: 90 * time.Second},
		exited: make(chan struct{})}
	go func() { cmd.Wait(); close(d.exited) }()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("bench: alignd exited during start-up (see %s)", logf.Name())
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := d.http.Get(d.base + "/healthz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("bench: alignd never became healthy (see %s)", logf.Name())
}

// kill is the unclean stop for error paths: no drain, no rusage.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.logf.Close()
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	defer d.logf.Close()
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(40 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	if st := d.cmd.ProcessState; !st.Success() {
		return fmt.Errorf("bench: alignd exited with %v", st)
	}
	return nil
}

// peakRSSMB is the daemon's peak resident set so far, from VmHWM in
// /proc/<pid>/status; read just before stop it is the peak at exit. The
// exit rusage cannot be used: a child's ru_maxrss starts from its parent's
// resident set at fork time, so it reports the benchmark's memory whenever
// that is the larger.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: unparsable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc status")
}

// cpuSeconds is the daemon's user+system CPU so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks of 1/100 s).
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from the
	// closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: unparsable /proc stat times")
	}
	const clockTicks = 100
	return (ut + st) / clockTicks, nil
}

// varsSnapshot is /debug/vars: the daemon's whole metrics registry plus Go
// runtime counters. It carries everything /metrics does, already as JSON,
// so the benchmark scrapes only this endpoint.
type varsSnapshot struct {
	Metrics obs.Snapshot `json:"metrics"`
	Runtime struct {
		Goroutines   int    `json:"goroutines"`
		TotalAlloc   uint64 `json:"total_alloc"`
		Mallocs      uint64 `json:"mallocs"`
		NumGC        uint32 `json:"num_gc"`
		PauseTotalNs uint64 `json:"pause_total_ns"`
	} `json:"runtime"`
}

func (d *daemon) vars() (*varsSnapshot, error) {
	resp, err := d.http.Get(d.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: /debug/vars answered %s", resp.Status)
	}
	var v varsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("bench: decoding /debug/vars: %w", err)
	}
	return &v, nil
}

// captureTrace asks the daemon for its wall-clock spans over the next sec
// seconds (blocks that long).
func (d *daemon) captureTrace(sec int) ([]obs.TraceEvent, error) {
	resp, err := d.http.Get(d.base + "/debug/trace?sec=" + strconv.Itoa(sec))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("bench: /debug/trace answered %s", resp.Status)
	}
	var ev []obs.TraceEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		return nil, fmt.Errorf("bench: decoding /debug/trace: %w", err)
	}
	return ev, nil
}
