package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// serverProc is a spawned `kwmds serve` child.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	// setup is spawn → first 200 from /healthz.
	setup time.Duration

	exited  chan struct{} // closed when the process has been reaped
	waitErr error

	mu   sync.Mutex
	tail []string  // last stderr lines, for error reports
	gcs  []gcCycle // gctrace cycles (GODEBUG=gctrace=1 runs only)
}

// gcCycle is one runtime GC cycle reported by the child's gctrace.
type gcCycle struct {
	At    time.Time // when the line arrived
	Pause float64   // stop-the-world ms (sweep termination + mark termination)
}

// startServer spawns bin with args and waits until it answers /healthz.
func startServer(bin string, args []string, gctrace bool) (*serverProc, error) {
	cmd := exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = childAttr()
	cmd.Env = os.Environ()
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	addrCh := make(chan string, 1)
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		p.readStderr(stderr, addrCh)
	}()
	go func() {
		<-stderrDone // Wait closes the pipe; drain it first
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	select {
	case p.addr = <-addrCh:
	case <-p.exited:
		return nil, fmt.Errorf("server exited during start-up: %v: %s", p.waitErr, p.lastLines())
	case <-time.After(120 * time.Second):
		p.kill()
		return nil, fmt.Errorf("server did not report its address within 120s")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(p.url("/healthz"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("server at %s never became healthy", p.addr)
		}
		time.Sleep(time.Millisecond)
	}
	p.setup = time.Since(start)
	return p, nil
}

func (p *serverProc) url(path string) string { return "http://" + p.addr + path }

func (p *serverProc) readStderr(r io.Reader, addrCh chan<- string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	const listening = "listening on "
	for sc.Scan() {
		line := sc.Text()
		now := time.Now()
		if i := strings.Index(line, listening); i >= 0 && addrCh != nil {
			addrCh <- strings.TrimSpace(line[i+len(listening):])
			addrCh = nil
			continue
		}
		p.mu.Lock()
		if pause, ok := parseGCTrace(line); ok {
			p.gcs = append(p.gcs, gcCycle{At: now, Pause: pause})
		} else {
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
		}
		p.mu.Unlock()
	}
}

func (p *serverProc) lastLines() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, " | ")
}

// gcBetween returns the GC cycles whose trace line arrived in [from, to].
func (p *serverProc) gcBetween(from, to time.Time) []gcCycle {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []gcCycle
	for _, c := range p.gcs {
		if !c.At.Before(from) && !c.At.After(to) {
			out = append(out, c)
		}
	}
	return out
}

// parseGCTrace extracts the stop-the-world pause from a gctrace line:
//
//	gc 7 @0.135s 1%: 0.015+1.2+0.004 ms clock, ...
//
// The clock triple is sweep termination (STW) + concurrent mark + mark
// termination (STW).
func parseGCTrace(line string) (pauseMS float64, ok bool) {
	f := strings.Fields(line)
	if len(f) < 6 || f[0] != "gc" || f[5] != "ms" {
		return 0, false
	}
	parts := strings.Split(f[4], "+")
	if len(parts) != 3 {
		return 0, false
	}
	a, err1 := strconv.ParseFloat(parts[0], 64)
	c, err2 := strconv.ParseFloat(parts[2], 64)
	if err1 != nil || err2 != nil {
		return 0, false
	}
	return a + c, true
}

// alive reports whether the child is still running.
func (p *serverProc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop sends SIGTERM (the server drains and exits 0) and waits. It returns
// an error when the child had already died, or exits uncleanly.
func (p *serverProc) stop() error {
	if !p.alive() {
		return fmt.Errorf("server exited before it was stopped: %v: %s", p.waitErr, p.lastLines())
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(60 * time.Second):
		p.kill()
		return fmt.Errorf("server did not drain within 60s")
	}
	if p.waitErr != nil {
		return fmt.Errorf("server exit: %v: %s", p.waitErr, p.lastLines())
	}
	return nil
}

// kill ends the child unconditionally and waits for it to be reaped.
func (p *serverProc) kill() {
	if p.alive() {
		p.cmd.Process.Kill()
	}
	<-p.exited
}

// cpuSeconds reads utime+stime of a process from /proc (USER_HZ = 100).
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, so 12 and 13 after ")".
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / 100, nil
}

// peakRSSMB reads a process's VmHWM (peak resident set) in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// childAttr makes a child die with the benchmark, so no server outlives an
// interrupted run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// stealTicks reads the machine-wide CPU tick counters of /proc/stat: time
// the hypervisor gave this VM's vCPUs to someone else while they wanted to
// run, and all time.
func stealTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealSince is the share of CPU time stolen by the hypervisor since the
// counters (steal0, total0) were read.
func stealSince(steal0, total0 uint64) float64 {
	steal, total := stealTicks()
	return ratio(float64(steal-steal0), float64(total-total0))
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape fetches and parses the server's /metrics.
func scrape(p *serverProc) (promSample, error) {
	resp, err := http.Get(p.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseProm(string(body))
}
