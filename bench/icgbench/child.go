package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/wal"
)

// childEnv carries the server child's configuration: the child is this
// same binary (or test binary), started with the variable set.
const childEnv = "ICGBENCH_CHILD"

// childConfig is what the server child needs to build the gateway the way
// icgserve serves.
type childConfig struct {
	Workload string `json:"workload"`
	Procs    int    `json:"procs"`
	WALDir   string `json:"wal_dir"`
}

// childStats is what the child prints when it exits.
type childStats struct {
	Gateway gateway.Stats `json:"gateway"`
}

// childMain runs the server child and exits when childEnv is set; it
// returns at once otherwise.
func childMain() {
	raw := os.Getenv(childEnv)
	if raw == "" {
		return
	}
	var cfg childConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "icgbench child: bad %s: %v\n", childEnv, err)
		os.Exit(2)
	}
	if err := serve(cfg, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "icgbench child: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// saturatedEventQueue is the one setting in which the server of the
// closed-loop workloads differs from icgserve, whose egress queue holds
// the gateway's default 1024 events. Under closed-loop saturation on two
// CPUs a connection's egress writer has gone unscheduled for 35-60 ms
// while the workers kept emitting, so a 1024-event queue overflowed and
// dropped events in about one closed-loop run in eight; a dropped event
// fails the run. 8192 events is about half a second of the closed-loop
// event rate. The open-loop workloads run at a sustainable load and keep
// icgserve's queue.
const saturatedEventQueue = 8192

// serve builds the gateway as icgserve serves: core.NewDevice with the
// default config, one shard, GOMAXPROCS workers, MaxPending 64, plus the
// WAL and eviction on durable_churn, and in closed loop an egress queue of
// saturatedEventQueue. It announces its address, serves until stdin
// closes, collecting its garbage when the parent asks, then prints its
// final stats.
func serve(cfg childConfig, stdin io.Reader, stdout io.Writer) error {
	w, ok := workloadByName(cfg.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	runtime.GOMAXPROCS(cfg.Procs)
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		return err
	}
	scfg := w.sessionConfig(cfg.Procs)
	var log *wal.Log
	if w.durable {
		if log, err = wal.Open(cfg.WALDir, wal.Config{}); err != nil {
			return err
		}
		scfg.WAL = log
	}
	gcfg := gateway.Config{Shards: 1, Session: scfg}
	if !w.openLoop {
		gcfg.EventQueue = saturatedEventQueue
	}
	g := gateway.New(dev, gcfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- g.Serve(ln) }()
	fmt.Fprintf(stdout, "listening %s\n", ln.Addr())
	// A "collect" line from the parent (see child.collect) asks for a
	// garbage collection, answered with the live heap it marked; the end
	// of stdin stops the server.
	in := bufio.NewScanner(stdin)
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for in.Scan() {
		if in.Text() == "collect" {
			debug.FreeOSMemory()
			metrics.Read(live)
			fmt.Fprintf(stdout, "collected %d\n", live[0].Value.Uint64())
		}
	}
	if err := in.Err(); err != nil {
		return err
	}
	// The parent closes its connections before stdin. Let the gateway see
	// each disconnect first: closing a connection the peer already closed
	// fails its reader, which the gateway counts as a protocol error.
	for deadline := time.Now().Add(10 * time.Second); g.Stats().ConnsOpen > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	cerr := g.Close()
	if err := <-served; err != nil {
		return err
	}
	if log != nil {
		if err := log.Close(); err != nil {
			return err
		}
	}
	b, err := json.Marshal(childStats{Gateway: g.Stats()})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "stats %s\n", b)
	return cerr
}

// child is the parent's handle on a running server child.
type child struct {
	cmd     *exec.Cmd
	pid     int
	addr    string
	stdin   io.WriteCloser
	out     *bufio.Scanner
	gc      gcTrace
	errDone chan struct{}
	tail    tailBuf // last stderr lines that are not gctrace, for errors
	stats   childStats
}

// spawnChild starts the server child and waits for its address.
func spawnChild(w workload, o options, walDir string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cfg, err := json.Marshal(childConfig{Workload: w.name, Procs: o.procs, WALDir: walDir})
	if err != nil {
		return nil, err
	}
	c := &child{errDone: make(chan struct{})}
	c.cmd = exec.Command(exe)
	c.cmd.Env = append(os.Environ(), childEnv+"="+string(cfg), "GODEBUG=gctrace=1",
		"GOMAXPROCS="+strconv.Itoa(o.procs))
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	c.pid = c.cmd.Process.Pid
	go func() {
		defer close(c.errDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if !c.gc.parse(sc.Text()) {
				c.tail.add(sc.Text())
			}
		}
	}()
	c.out = bufio.NewScanner(stdout)
	if !c.out.Scan() || !strings.HasPrefix(c.out.Text(), "listening ") {
		c.kill()
		return nil, fmt.Errorf("server child did not start: %s", c.tail.String())
	}
	c.addr = strings.TrimPrefix(c.out.Text(), "listening ")
	return c, nil
}

// stop closes the child's stdin, which shuts the gateway down, and
// collects the stats it prints. It kills a child that does not exit in
// time.
func (c *child) stop() error {
	c.stdin.Close()
	done := make(chan error, 1)
	go func() {
		var err error
		found := false
		for c.out.Scan() {
			if line, ok := strings.CutPrefix(c.out.Text(), "stats "); ok {
				found = true
				err = json.Unmarshal([]byte(line), &c.stats)
			}
		}
		if err == nil && !found {
			err = errors.New("server child printed no stats")
		}
		<-c.errDone
		if werr := c.cmd.Wait(); werr != nil && err == nil {
			err = werr
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("server child: %w (stderr: %s)", err, c.tail.String())
		}
		return nil
	case <-time.After(60 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return errors.New("server child did not exit within 60 s; killed")
	}
}

// collect has the child collect its garbage and return the freed memory
// to the OS (debug.FreeOSMemory), waits until it has, and returns the
// live heap the collection marked, in bytes.
func (c *child) collect() (int64, error) {
	if _, err := fmt.Fprintln(c.stdin, "collect"); err != nil {
		return 0, fmt.Errorf("server child: %w", err)
	}
	if !c.out.Scan() {
		return 0, fmt.Errorf("server child did not collect (stderr: %s)", c.tail.String())
	}
	v, ok := strings.CutPrefix(c.out.Text(), "collected ")
	live, err := strconv.ParseInt(v, 10, 64)
	if !ok || err != nil {
		return 0, fmt.Errorf("server child: bad reply %q to collect", c.out.Text())
	}
	return live, nil
}

// kill ends the child at once and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	c.stdin.Close()
	<-c.errDone
	c.cmd.Wait()
}

// tailBuf keeps the last few lines of a stream.
type tailBuf struct {
	mu    sync.Mutex
	lines []string
}

func (t *tailBuf) add(s string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, s)
	if len(t.lines) > 8 {
		t.lines = t.lines[1:]
	}
}

func (t *tailBuf) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, " | ")
}

// gcTrace accumulates the child's GODEBUG=gctrace=1 lines:
//
//	gc 12 @3.456s 2%: 0.02+1.2+0.003 ms clock, 0.04+0.5/1.1/0+0.006 ms cpu, ...
//
// The CPU field is stop-the-world sweep termination, then assist,
// background and idle mark, then stop-the-world mark termination. GC CPU
// counts all but idle mark, which only runs on otherwise idle Ps.
type gcTrace struct {
	mu     sync.Mutex
	cycles int
	cpuMs  float64
}

func (g *gcTrace) parse(line string) bool {
	if !strings.HasPrefix(line, "gc ") {
		return false
	}
	cpu, ok := gcCPUms(line)
	if !ok {
		return false
	}
	if strings.HasSuffix(line, "(forced)") {
		return true // the benchmark's own collection (child.collect)
	}
	g.mu.Lock()
	g.cycles++
	g.cpuMs += cpu
	g.mu.Unlock()
	return true
}

func (g *gcTrace) snapshot() (int, float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cycles, g.cpuMs
}

// gcCPUms extracts the GC CPU milliseconds of one gctrace line.
func gcCPUms(line string) (float64, bool) {
	end := strings.Index(line, " ms cpu")
	if end < 0 {
		return 0, false
	}
	start := strings.LastIndex(line[:end], " ")
	parts := strings.Split(line[start+1:end], "+")
	if len(parts) != 3 {
		return 0, false
	}
	mark := strings.Split(parts[1], "/")
	if len(mark) != 3 {
		return 0, false
	}
	total := 0.0
	for _, f := range []string{parts[0], mark[0], mark[1], parts[2]} {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, false
		}
		total += v
	}
	return total, true
}

// Process facts read from /proc, from outside the process.

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it start past
	// the last ')'. utime and stime are fields 14 and 15 of the line,
	// 12 and 13 after the name.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(u+st) * time.Second / clockTicks, nil
}

// procStatus returns one numeric field (kB for memory fields) of
// /proc/<pid>/status.
func procStatus(pid int, key string) (int64, error) {
	return statusField(fmt.Sprintf("/proc/%d/status", pid), key)
}

func statusField(path, key string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// procCtxSwitches sums voluntary and involuntary context switches over
// every thread of a process.
func procCtxSwitches(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		v, err1 := statusField(t, "voluntary_ctxt_switches")
		n, err2 := statusField(t, "nonvoluntary_ctxt_switches")
		if err1 != nil || err2 != nil {
			continue // the thread exited between the listing and the read
		}
		total += v + n
	}
	return total, nil
}

// selfCPU returns this process's user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsName names the filesystem holding dir, for the machine facts.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
