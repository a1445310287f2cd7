package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// pinnedFlags are the durable-ack flags every measured qtag-server runs
// with; everything else, admission control included, stays at its
// default.
var pinnedFlags = []string{"-durable-sync", "-fsync", "always"}

// serverProc is one qtag-server child process.
type serverProc struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs bin on walDir and returns once /readyz answers 200,
// with the time from exec to that answer.
func startServer(bin, walDir, logPath string, detect bool) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-wal-dir", walDir}, pinnedFlags...)
	if detect {
		args = append(args, "-detect")
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// The server must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, 0, fmt.Errorf("start qtag-server: %w", err)
	}
	p := &serverProc{cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), log: lf, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(p.done) }()
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.done:
			lf.Close()
			return nil, 0, fmt.Errorf("qtag-server exited during boot (log: %s)", logPath)
		default:
		}
		if resp, err := client.Get(p.url + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		if time.Since(start) > 90*time.Second {
			p.kill()
			return nil, 0, errors.New("qtag-server not ready after 90s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// kill SIGKILLs the server and waits for it to exit.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
	p.log.Close()
}

// cpu returns the server's user+system CPU time so far.
func (p *serverProc) cpu() (time.Duration, error) {
	return procCPU(p.cmd.Process.Pid)
}

// peakRSSMB returns the server's peak resident set (VmHWM) in MB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	// fields[0] is the state (field 3); utime and stime are fields 14, 15.
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat cpu fields", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// selfCPU returns this process's user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// copyDir copies the regular files of src into a new directory dst, then
// flushes every dirty page to disk: on ext4 an fsync commits the whole
// journal, so dirty data left behind here would be written out by the
// server's first timed fsyncs.
func copyDir(src, dst string) error {
	defer syscall.Sync()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
