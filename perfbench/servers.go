package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// topology is the server layout a workload drives.
type topology struct {
	replicas    int  // solver processes
	coordinator bool // a -coordinator process in front of the replicas
	workers     int  // -workers of every replica; equals the client count
}

// proc is one running neuroselect-serve process.
type proc struct {
	cmd  *exec.Cmd
	base string // http://host:port of its API
	name string // -backend-name, or "" for a lone replica
	done chan struct{}
}

// deployment is a started topology: the entry point clients talk to and
// every process behind it.
type deployment struct {
	entry    string            // base URL clients send to
	procs    []*proc           // every process, coordinator last
	backends map[string]string // -backend-name → base URL
}

// startProc execs the server and returns once it printed its listening
// address. The process dies with the benchmark (Pdeathsig) if the
// benchmark is killed before it can stop it.
func startProc(bin string, args []string, name string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, name: name, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, " listening on "); i >= 0 && !found && !strings.HasPrefix(line, "metrics") {
				a := line[i+len(" listening on "):]
				if j := strings.IndexByte(a, ' '); j >= 0 {
					a = a[:j]
				}
				found = true
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, out)
		if !found {
			close(addr)
		}
		_ = cmd.Wait()
		close(p.done)
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			<-p.done
			return nil, fmt.Errorf("%s exited before listening (%v)", bin, cmd.ProcessState)
		}
		p.base = "http://" + a
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, errors.New("server did not print its listening address within 30s")
	}
}

// stop drains the process with SIGTERM and waits for it to exit, killing
// it if the drain takes longer than ten seconds.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// startDeployment starts the topology and returns once its entry point is
// routable: /healthz answers 200 on every replica and, for a cluster, on
// the coordinator with every backend up. The duration runs from the exec
// of the first process to that moment.
func startDeployment(bin, model string, t topology) (*deployment, time.Duration, error) {
	start := time.Now()
	d := &deployment{backends: map[string]string{}}
	type started struct {
		p   *proc
		err error
	}
	ch := make(chan started, t.replicas)
	for i := 0; i < t.replicas; i++ {
		args := []string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(t.workers), "-model", model}
		name := ""
		if t.coordinator {
			name = fmt.Sprintf("r%d", i+1)
			args = append(args, "-backend-name", name)
		}
		go func() {
			p, err := startProc(bin, args, name)
			ch <- started{p, err}
		}()
	}
	var errs []error
	for i := 0; i < t.replicas; i++ {
		s := <-ch
		if s.err != nil {
			errs = append(errs, s.err)
			continue
		}
		d.procs = append(d.procs, s.p)
	}
	if len(errs) > 0 {
		d.stop()
		return nil, 0, errors.Join(errs...)
	}
	// Replicas are kept in backend-name order so the coordinator's ring and
	// every report list them the same way on every run.
	sort.Slice(d.procs, func(i, j int) bool { return d.procs[i].name < d.procs[j].name })
	var urls []string
	for _, p := range d.procs {
		urls = append(urls, p.base)
		if p.name != "" {
			d.backends[p.name] = p.base
		}
	}
	d.entry = d.procs[0].base
	if t.coordinator {
		p, err := startProc(bin, []string{"-coordinator", "-addr", "127.0.0.1:0",
			"-replicas", strings.Join(urls, ",")}, "coordinator")
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.procs = append(d.procs, p)
		d.entry = p.base
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, p := range d.procs {
		want := 0
		if p.name == "coordinator" {
			want = t.replicas
		}
		if err := waitHealthy(ctx, p.base, want); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	return d, time.Since(start), nil
}

// healthClient polls /healthz; it is separate from the load clients so set-up
// polling never counts as a load connection.
var healthClient = &http.Client{
	Timeout:   2 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// waitHealthy polls base/healthz until it answers 200 and, when upLines
// is positive, lists that many backends as up.
func waitHealthy(ctx context.Context, base string, upLines int) error {
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		resp, err := healthClient.Do(req)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Count(string(body), " up\n") >= upLines {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s/healthz not ready: %v", base, ctx.Err())
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// stop drains every process, coordinator first.
func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

// cpuTicks sums utime+stime of every process, in clock ticks.
func (d *deployment) cpuTicks() (int64, error) {
	var sum int64
	for _, p := range d.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
		}
		for _, x := range f[11:13] {
			v, err := strconv.ParseInt(x, 10, 64)
			if err != nil {
				return 0, err
			}
			sum += v
		}
	}
	return sum, nil
}

// hostCPU returns the machine-wide steal and total CPU time from
// /proc/stat, in clock ticks. Steal is time the hypervisor gave this
// machine's CPUs to other guests, which slows every wall-clock metric.
func hostCPU() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if i < 8 { // guest times are already counted in user and nice
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicksPerSecond = 100

// peakRSSBytes sums VmHWM over every process.
func (d *deployment) peakRSSBytes() (int64, error) {
	var sum int64
	for _, p := range d.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
				if err != nil {
					return 0, err
				}
				sum += kb << 10
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
		}
	}
	return sum, nil
}

// coldStarts starts the topology n times, keeping only the last
// deployment running, and returns it with every start-up duration.
func coldStarts(bin, model string, t topology, n int) (*deployment, []time.Duration, error) {
	var times []time.Duration
	for i := 0; i < n; i++ {
		d, took, err := startDeployment(bin, model, t)
		if err != nil {
			return nil, nil, fmt.Errorf("cold start %d: %w", i+1, err)
		}
		times = append(times, took)
		if i == n-1 {
			return d, times, nil
		}
		d.stop()
	}
	return nil, nil, errors.New("no cold starts")
}
