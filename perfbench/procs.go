package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is this process's user+system CPU in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// selfPeakRSSMB is this process's peak resident set in MB.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kB on Linux
}

// clkTck is the kernel's clock-tick rate for /proc CPU times. It is 100
// on every Linux ABI Go supports.
const clkTck = 100

// procCPU reads a live process's user+system CPU seconds from /proc.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return (ut + st) / clkTck, nil
}

// procPeakRSSMB reads a live process's peak resident set (VmHWM).
func procPeakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// child is one process under test; a daemon's is a tier.
type child struct {
	name        string
	cmd         *exec.Cmd
	lines       chan string // stderr lines, closed at EOF
	log         strings.Builder
	done        chan struct{}
	cpu0        float64
	api, ingest string // a daemon's bound addresses
}

func (c *child) apiURL() string     { return "http://" + c.api }
func (c *child) ingestAddr() string { return c.ingest }

// startChild runs bin with args and waits until a stderr line matches
// ready, returning its submatches.
func startChild(name, bin string, args []string, ready *regexp.Regexp, stdin io.Reader, stdout io.Writer) (*child, []string, error) {
	c := &child{name: name, cmd: exec.Command(bin, args...), lines: make(chan string, 64), done: make(chan struct{})}
	c.cmd.Stdin = stdin
	c.cmd.Stdout = stdout
	errp, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	go func() {
		sc := bufio.NewScanner(errp)
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default: // nobody waiting for a ready line any more
			}
			c.log.WriteString(sc.Text() + "\n")
		}
		close(c.lines)
		_ = c.cmd.Wait()
		close(c.done)
	}()
	timeout := time.After(60 * time.Second)
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				<-c.done
				return nil, nil, fmt.Errorf("%s exited before ready: %s", name, c.log.String())
			}
			if m := ready.FindStringSubmatch(line); m != nil {
				c.cpu0, _ = procCPU(c.cmd.Process.Pid)
				return c, m, nil
			}
		case <-timeout:
			c.kill()
			return nil, nil, fmt.Errorf("%s: not ready after 60 s", name)
		}
	}
}

// cpu is the CPU the child used since it became ready.
func (c *child) cpu() float64 {
	v, err := procCPU(c.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return v - c.cpu0
}

func (c *child) peakRSS() float64 {
	v, _ := procPeakRSSMB(c.cmd.Process.Pid)
	return v
}

// stop asks the child to drain (SIGINT, as an operator would) and
// waits for it, killing it if it has not exited in 15 s.
func (c *child) stop() error {
	const grace = 15 * time.Second
	_ = c.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-c.done:
		if st := c.cmd.ProcessState; st != nil && !st.Success() {
			return fmt.Errorf("%s exited with %v", c.name, st)
		}
		return nil
	case <-time.After(grace):
		c.kill()
		return fmt.Errorf("%s did not exit within %v of SIGINT", c.name, grace)
	}
}

// kill ends the child at once and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// hostTicks reads the machine-wide CPU tick counters: busy (user, nice,
// system, irq, softirq), steal (time the hypervisor ran someone else on
// our virtual CPUs) and the total.
func hostTicks() (busy, steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	// Fields: user nice system idle iowait irq softirq steal, then the
	// guest times, which user and nice already include.
	for i, v := range f[1:min(len(f), 9)] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		switch i {
		case 0, 1, 2, 5, 6:
			busy += x
		case 7:
			steal = x
		}
	}
	return busy, steal, total
}

// hostLoad measures the host between start and stop: the share of all
// CPU time that was busy, and the share stolen by the hypervisor. An
// overloaded host shows up here rather than as a slow program.
type hostLoad struct{ busy0, steal0, total0 float64 }

func startHostLoad() hostLoad {
	b, s, t := hostTicks()
	return hostLoad{b, s, t}
}

func (h hostLoad) stop() map[string]float64 {
	b, s, t := hostTicks()
	if t <= h.total0 {
		return nil
	}
	return map[string]float64{"busy_frac": (b - h.busy0) / (t - h.total0), "steal_frac": (s - h.steal0) / (t - h.total0)}
}
