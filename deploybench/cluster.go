package main

import (
	"bufio"
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

	"repro/internal/obs"
)

// replicaEnv marks a re-executed benchmark binary as a replica child.
const replicaEnv = "DEPLOYBENCH_REPLICA"

// proc is one replica child process.
type proc struct {
	id          int
	cmd         *exec.Cmd
	stdin       io.WriteCloser
	out         *bufio.Scanner
	peerAddr    string
	clientAddr  string
	metricsAddr string
	killed      bool
	waited      bool
	usage       *syscall.Rusage // set once the process has been reaped
}

// cluster is one deployed cluster of n replica processes.
type cluster struct {
	dir    string // data directories, logs, state dumps and spans
	wl     workload
	traced bool
	procs  []*proc
}

// startCluster spawns n replica processes of exe and wires them: each
// reports its bound addresses, receives the peer table, and reports READY.
// On error every spawned process is killed and reaped.
func startCluster(exe, dir string, wl workload, seed int64, traced bool) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, wl: wl, traced: traced}
	ok := false
	defer func() {
		if !ok {
			c.abort()
		}
	}()
	for i := 0; i < clusterCfg.N; i++ {
		args := []string{
			"-self", strconv.Itoa(i),
			"-seed", strconv.FormatInt(seed, 10),
			"-shards", strconv.Itoa(wl.shards),
			"-keys", strconv.Itoa(wl.keys),
			"-datadir", filepath.Join(dir, fmt.Sprintf("data-%d", i)),
			"-out", dir,
		}
		if traced {
			args = append(args, "-trace")
		}
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), replicaEnv+"=1")
		logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("replica-%d.log", i)))
		if err != nil {
			return nil, err
		}
		cmd.Stderr = logf
		stdin, err := cmd.StdinPipe()
		if err != nil {
			_ = logf.Close()
			return nil, err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			_ = logf.Close()
			return nil, err
		}
		err = cmd.Start()
		_ = logf.Close() // the child holds its own descriptor
		if err != nil {
			return nil, fmt.Errorf("spawning replica %d: %w", i, err)
		}
		c.procs = append(c.procs, &proc{id: i, cmd: cmd, stdin: stdin, out: bufio.NewScanner(stdout)})
	}
	peers := make([]string, len(c.procs))
	for i, p := range c.procs {
		f, err := p.expect("ADDRS", 3)
		if err != nil {
			return nil, err
		}
		p.peerAddr, p.clientAddr, p.metricsAddr = f[0], f[1], f[2]
		peers[i] = p.peerAddr
	}
	line := "PEERS " + strings.Join(peers, " ") + "\n"
	for _, p := range c.procs {
		if _, err := io.WriteString(p.stdin, line); err != nil {
			return nil, fmt.Errorf("replica %d: %w", p.id, err)
		}
	}
	for _, p := range c.procs {
		if _, err := p.expect("READY", 0); err != nil {
			return nil, err
		}
	}
	ok = true
	return c, nil
}

// expect reads the child's next stdout line, which must start with tag and
// carry at least n more fields.
func (p *proc) expect(tag string, n int) ([]string, error) {
	if !p.out.Scan() {
		return nil, fmt.Errorf("replica %d exited before %s (see its log): %v", p.id, tag, p.out.Err())
	}
	f := strings.Fields(p.out.Text())
	if len(f) < n+1 || f[0] != tag {
		return nil, fmt.Errorf("replica %d: want %s line, got %q", p.id, tag, p.out.Text())
	}
	return f[1:], nil
}

// clientAddrs returns the replicas' client-listener address book.
func (c *cluster) clientAddrs() []string {
	out := make([]string, len(c.procs))
	for i, p := range c.procs {
		out[i] = p.clientAddr
	}
	return out
}

// live returns the processes not killed.
func (c *cluster) live() []*proc {
	var out []*proc
	for _, p := range c.procs {
		if !p.killed {
			out = append(out, p)
		}
	}
	return out
}

// kill sends SIGKILL to replica i and reaps it.
func (c *cluster) kill(i int) error {
	p := c.procs[i]
	if err := p.cmd.Process.Kill(); err != nil {
		return fmt.Errorf("killing replica %d: %w", i, err)
	}
	p.killed = true
	_ = p.reap() // reports "signal: killed", the expected end
	return nil
}

// reap waits for the process once and keeps its resource usage.
func (p *proc) reap() error {
	if p.waited {
		return nil
	}
	p.waited = true
	err := p.cmd.Wait()
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		p.usage = ru
	}
	return err
}

// stop closes every live replica's stdin — the signal to dump state and
// exit — and waits for all of them; a replica still running after the
// grace period is killed.
func (c *cluster) stop(grace time.Duration) error {
	for _, p := range c.live() {
		_ = p.stdin.Close() // a child that already died is reported by reap
	}
	timer := time.AfterFunc(grace, func() {
		for _, p := range c.live() {
			_ = p.cmd.Process.Kill() // may already have exited
		}
	})
	defer timer.Stop()
	var first error
	for _, p := range c.procs {
		if err := p.reap(); err != nil && !p.killed && first == nil {
			first = fmt.Errorf("replica %d: %w (see %s)", p.id, err, filepath.Join(c.dir, fmt.Sprintf("replica-%d.log", p.id)))
		}
	}
	return first
}

// abort kills and reaps every process; used on error paths.
func (c *cluster) abort() {
	for _, p := range c.procs {
		if !p.waited {
			_ = p.cmd.Process.Kill() // may already have exited
			_ = p.reap()
		}
	}
}

// peakRSS returns the largest peak RSS among the reaped replicas, in bytes.
func (c *cluster) peakRSS() int64 {
	var maxRSS int64
	for _, p := range c.procs {
		if p.usage == nil {
			continue
		}
		if rss := p.usage.Maxrss * 1024; rss > maxRSS { // Linux reports KiB
			maxRSS = rss
		}
	}
	return maxRSS
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat:
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// sampleCPU reads every replica's user+system CPU in clock ticks, by id.
// A process already reaped (a killed one) has no reading. It touches only
// fields fixed at spawn, so it may run beside the load.
func (c *cluster) sampleCPU() map[int]int64 {
	m := map[int]int64{}
	for _, p := range c.procs {
		if t, err := cpuTicks(p.cmd.Process.Pid); err == nil {
			m[p.id] = t
		}
	}
	return m
}

// windowCPU returns the CPU that the replicas still alive used between two
// samples.
func (c *cluster) windowCPU(start, end map[int]int64) (time.Duration, error) {
	var ticks int64
	for _, p := range c.live() {
		a, ok := start[p.id]
		b, ok2 := end[p.id]
		if !ok || !ok2 {
			return 0, fmt.Errorf("replica %d: no CPU reading for the window", p.id)
		}
		ticks += b - a
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// cpuTicks reads utime+stime of a process from /proc/<pid>/stat. The
// fields are counted after the parenthesised command name, which may hold
// spaces: the state is field 3, utime 14 and stime 15.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: no command name", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f)+2)
	}
	var sum int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		sum += v
	}
	return sum, nil
}

// scrape reads one replica's /metrics.json.
func scrape(addr string) (*obs.Snapshot, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics.json: %s", addr, resp.Status)
	}
	var s obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("decoding %s/metrics.json: %w", addr, err)
	}
	return &s, nil
}
