package main

import (
	"bytes"
	"fmt"
	"io/fs"
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

	"hyperprov/internal/db"
)

// repoRoot finds the checkout root: the directory holding
// cmd/hyperprov, either the working directory (go run ./bench/e2e from
// an in-tree copy) or two levels up (go run -C bench/e2e .).
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "..", "..")} {
		if st, err := os.Stat(filepath.Join(dir, "cmd", "hyperprov", "serve.go")); err == nil && !st.IsDir() {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("cmd/hyperprov not found from %s: run from the repository root or bench/e2e", wd)
}

// buildServer compiles cmd/hyperprov from the checkout's source into
// .bench_build/e2e and returns the binary's path.
func buildServer(root string) (string, error) {
	outDir := filepath.Join(root, ".bench_build", "e2e")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(outDir, "hyperprov")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hyperprov")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/hyperprov: %v\n%s", err, out)
	}
	return bin, nil
}

// writeCSVs writes one CSV per relation and returns the -data flags
// that bootstrap a server from them.
func writeCSVs(dir string, d *db.Database) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var flags []string
	for _, rel := range d.Schema().Names() {
		path := filepath.Join(dir, rel+".csv")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := db.WriteCSV(f, d.Instance(rel)); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		flags = append(flags, "-data", rel+"="+path)
	}
	return flags, nil
}

// proc is one `hyperprov serve` subprocess. Every started proc is
// registered in live until it has been killed and waited for, so an
// interrupted benchmark leaves none behind; one killed outright takes
// its servers with it through Pdeathsig.
type proc struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	dir      string // -data-dir
	logPath  string
	launched time.Time
	done     chan struct{} // closed once the process has been waited for
}

var live struct {
	sync.Mutex
	procs map[*proc]struct{}
}

// start launches the command and registers the process.
func (s *proc) start() error {
	s.launched, s.done = time.Now(), make(chan struct{})
	if err := s.cmd.Start(); err != nil {
		return err
	}
	go func() {
		_ = s.cmd.Wait() // a SIGKILLed child always reports an error
		close(s.done)
	}()
	live.Lock()
	defer live.Unlock()
	if live.procs == nil {
		live.procs = make(map[*proc]struct{})
	}
	live.procs[s] = struct{}{}
	return nil
}

// kill SIGKILLs the process and waits until it has ended.
func (s *proc) kill() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.done
	live.Lock()
	defer live.Unlock()
	delete(live.procs, s)
}

func killAllProcs() {
	live.Lock()
	var all []*proc
	for s := range live.procs {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.kill()
	}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// serverArgs are the flags every benchmark server runs with (stated in
// README.md): one shard, fsync off — ROADMAP item 6 locates the
// durable-write cost in encode+copy, and sandbox fsync latency
// describes the host, not the program — admission at its unlimited
// defaults.
func serverArgs(addr, dataDir string, p *plan) []string {
	return []string{"serve", "-addr", addr, "-data-dir", dataDir, "-sync", "never", "-shards", "1",
		"-autoindex", strconv.Itoa(p.autoIndex), "-checkpoint-every", strconv.Itoa(p.ckptEvery)}
}

func startServer(bin, dataDir string, p *plan, extra ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := dataDir + ".log"
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin, append(serverArgs(addr, dataDir, p), extra...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// SIGKILL, a driver's timeout or a test's timeout panic give the
	// harness no chance to run killAllProcs; the kernel then kills the
	// server for it (the harness reads /proc, so it is Linux-only anyway).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &proc{cmd: cmd, base: "http://" + addr, dir: dataDir, logPath: logPath}
	return s, s.start()
}

// waitOK polls path until it answers 200, the process exits, or the
// deadline passes; it returns the time since launch.
func (s *proc) waitOK(path string, timeout time.Duration) (time.Duration, error) {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
poll:
	for time.Now().Before(deadline) {
		resp, err := client.Get(s.base + path)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(s.launched), nil
			}
		}
		select {
		case <-s.done:
			break poll
		case <-time.After(2 * time.Millisecond):
		}
	}
	tail, _ := os.ReadFile(s.logPath)
	if len(tail) > 2000 {
		tail = tail[len(tail)-2000:]
	}
	return 0, fmt.Errorf("server at %s never answered 200 on %s; log tail:\n%s", s.base, path, tail)
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 100

// cpuSeconds is utime+stime of the process from /proc/<pid>/stat.
func (s *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after
	// its closing parenthesis.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unparseable /proc stat line %q", raw)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable /proc stat times in %q", raw)
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMB is VmHWM from /proc/<pid>/status, in MB.
func (s *proc) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unparseable VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a segment pruned mid-walk
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				if os.IsNotExist(err) {
					return nil
				}
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
