package main

// Process control for the programs under test: netconstantd runs as its
// own process, so its CPU time and peak RSS are read from /proc and
// rusage without counting the generator.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

type daemon struct {
	cmd  *exec.Cmd
	addr string
	out  *bufio.Reader
	errs *strings.Builder
}

// startDaemon launches netconstantd on dir with a kernel-chosen port and
// returns once it has printed the address it listens on, which it does
// only after every journaled tenant has been replayed.
func startDaemon(bin, dir string) (*daemon, error) {
	cmd := exec.Command(bin, "-dir", dir, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = orphanKill()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errs := &strings.Builder{}
	cmd.Stderr = errs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start netconstantd: %w", err)
	}
	d := &daemon{cmd: cmd, out: bufio.NewReader(stdout), errs: errs}
	line, err := d.out.ReadString('\n')
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("netconstantd exited before listening: %v: %s", err, errs.String())
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "netconstantd: listening on ")
	if !ok {
		d.kill()
		return nil, fmt.Errorf("netconstantd: unexpected first line %q", line)
	}
	d.addr = addr
	go io.Copy(io.Discard, d.out) // nothing else is printed; keep the pipe drained
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpu returns the daemon's CPU time so far: the sum of its threads'
// scheduler run times (nanosecond resolution), or utime+stime in clock
// ticks where schedstat is unavailable.
func (d *daemon) cpu() (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", d.pid()))
	if err != nil {
		return procCPU(d.pid())
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", d.pid(), t.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue // the thread exited between the listing and the read
			}
			return procCPU(d.pid())
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return procCPU(d.pid())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return procCPU(d.pid())
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// peakRSSMB returns the daemon's peak resident set (VmHWM) so far.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM missing from /proc status")
}

// procCPU reads utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// resume after the last ')'. utime and stime are fields 14 and 15.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * clockTick, nil
}

// stop sends SIGTERM, the daemon's drain signal, and waits for the
// process. A clean drain exits 130.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == 130 {
			return nil
		}
		return fmt.Errorf("netconstantd drain: %v: %s", err, d.errs.String())
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("netconstantd did not drain within 60 s")
	}
}

// kill ends the process without a drain and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// healthz mirrors the daemon's /healthz body.
type healthz struct {
	Shards []struct {
		Queue     int   `json:"queue"`
		Shed      int64 `json:"shed"`
		Mutations int64 `json:"mutations"`
	} `json:"shards"`
	Quarantined []string `json:"quarantined"`
}

func getHealth(c *client) (healthz, error) {
	var h healthz
	status, body, err := c.do("GET", "/healthz", nil)
	if err != nil {
		return h, err
	}
	if status != 200 {
		return h, errStatus("healthz", status, body)
	}
	return h, json.Unmarshal(body, &h)
}

func (h healthz) totals() (mutations, shed int64) {
	for _, s := range h.Shards {
		mutations += s.Mutations
		shed += s.Shed
	}
	return mutations, shed
}

// cpuTimes reads the machine-wide busy and steal ticks from /proc/stat.
// On a virtual machine, steal is time the host ran something else while
// this machine wanted the CPU: it inflates every wall-clock figure.
func cpuTimes() (busy, steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, 0, errors.New("malformed /proc/stat")
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]
	for i, v := range f[1:9] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, 0, err
		}
		total += n
		switch i {
		case 0, 1, 2, 5, 6:
			busy += n
		case 7:
			steal = n
		}
	}
	return busy, steal, total, nil
}

// stopwatch times a phase and the host steal during it.
type stopwatch struct {
	t0         time.Time
	busy0, st0 int64
}

func startWatch() stopwatch {
	busy, steal, _, _ := cpuTimes() // without /proc/stat the steal share reads 0
	return stopwatch{t0: time.Now(), busy0: busy, st0: steal}
}

// lap is one timed phase: its wall time and the share of the machine's
// runnable CPU time the host withheld meanwhile (steal ÷ (busy + steal)).
type lap struct {
	Wall  float64 `json:"wall_s"`
	Steal float64 `json:"steal_share"`
}

// Net is the wall time less the host's steal: the time the phase would
// have taken had the host not run other machines' work on our CPUs. For
// a phase keeping k CPUs busy, each CPU's share of the wall time W splits
// into busy and stolen time, so W·busy/(busy+steal) removes the stolen
// part whatever k is.
func (l lap) Net() float64 { return l.Wall * (1 - l.Steal) }

func (w stopwatch) stop() lap {
	l := lap{Wall: time.Since(w.t0).Seconds()}
	busy, steal, _, err := cpuTimes()
	if err != nil {
		return l
	}
	if d := (busy - w.busy0) + (steal - w.st0); d > 0 {
		l.Steal = float64(steal-w.st0) / float64(d)
	}
	return l
}

// orphanKill makes the kernel kill a child if the benchmark dies first,
// so an interrupted run leaves no program running.
func orphanKill() *syscall.SysProcAttr { return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} }
