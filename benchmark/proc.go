package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	startTimeout = 20 * time.Second
	stopTimeout  = 10 * time.Second
)

// buildBinaries compiles the served programs from the checkout's source.
func buildBinaries(binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
		"./cmd/volcano-serve", "./cmd/volcano-worker")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build: %w", err)
	}
	return nil
}

// proc is one child process. Its stderr is read to the end by a goroutine
// that picks the bound address out of the start-up banner and keeps the
// last lines for error reports.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string

	mu   sync.Mutex
	tail []string
	eof  chan struct{} // closed when stderr ends, that is when the child has exited
}

var bannerAddr = regexp.MustCompile(`(?:serving|dispatch) on http://(\S+)`)

// startProc starts bin and returns once it has printed the address it
// bound; every child binds 127.0.0.1:0, so runs never collide on a port.
func startProc(bin string, args ...string) (*proc, error) {
	p := &proc{name: filepath.Base(bin), cmd: exec.Command(bin, args...), eof: make(chan struct{})}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1) // one send: the first banner match
	go func() {
		defer close(p.eof)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := bannerAddr.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
			p.mu.Lock()
			if p.tail = append(p.tail, line); len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr) // a line too long for the scanner: keep the pipe drained
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.eof:
		_ = p.cmd.Wait()
		return nil, fmt.Errorf("%s exited before serving:\n%s", p.name, p.log())
	case <-time.After(startTimeout):
		_ = p.stop()
		return nil, fmt.Errorf("%s printed no address within %v:\n%s", p.name, startTimeout, p.log())
	}
}

func (p *proc) log() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// stop asks for a graceful drain with SIGTERM, kills after stopTimeout,
// and always reaps the child.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.eof:
	case <-time.After(stopTimeout):
		_ = p.cmd.Process.Kill()
		<-p.eof
	}
	err := p.cmd.Wait()
	// A child stopped before it has installed its handler dies of the
	// SIGTERM itself, with nothing to drain: that is a clean stop too.
	if ws, ok := p.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: %w:\n%s", p.name, err, p.log())
	}
	return nil
}

// fleet is the served system under test: one volcano-serve and, for
// distributed execution, volcano-workers registered with it.
type fleet struct {
	procs []*proc // the server first
}

func (f *fleet) url() string { return "http://" + f.procs[0].addr }

// startFleet starts the processes over db and returns when the server
// answers /healthz and sees every worker live.
func startFleet(binDir, db string, serveArgs []string, workers int) (*fleet, error) {
	args := append([]string{"-db", db, "-addr", "127.0.0.1:0"}, serveArgs...)
	if workers > 0 {
		args = append(args, "-dist")
	}
	srv, err := startProc(filepath.Join(binDir, "volcano-serve"), args...)
	if err != nil {
		return nil, err
	}
	f := &fleet{procs: []*proc{srv}}
	for i := 0; i < workers; i++ {
		w, err := startProc(filepath.Join(binDir, "volcano-worker"), "-db", db, "-coordinator", srv.addr)
		if err != nil {
			_ = f.stop()
			return nil, err
		}
		f.procs = append(f.procs, w)
	}
	ready := func() bool {
		if body, ok := get(f.url() + "/healthz"); !ok || !strings.HasPrefix(body, "ok") {
			return false
		}
		if workers == 0 {
			return true
		}
		body, ok := get(f.url() + "/debug/workers")
		return ok && strings.Contains(body, fmt.Sprintf(`"live":%d`, workers))
	}
	for deadline := time.Now().Add(startTimeout); !ready(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			_ = f.stop()
			return nil, fmt.Errorf("fleet not ready within %v:\n%s", startTimeout, srv.log())
		}
	}
	return f, nil
}

// stop shuts the workers down before the server and reports the first
// unclean exit.
func (f *fleet) stop() error {
	var first error
	for i := len(f.procs) - 1; i >= 0; i-- {
		if err := f.procs[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	f.procs = nil
	return first
}

func get(url string) (string, bool) {
	resp, err := http.Get(url)
	if err != nil {
		return "", false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err == nil && resp.StatusCode == http.StatusOK
}

// cpuSeconds sums user and system CPU time of the fleet's processes from
// /proc/PID/stat.
func (f *fleet) cpuSeconds() (float64, error) {
	const clkTck = 100 // USER_HZ, fixed at 100 on Linux
	var ticks int64
	for _, p := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		rest := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
		if len(rest) < 13 {
			return 0, fmt.Errorf("short /proc stat line for %s", p.name)
		}
		for _, s := range rest[11:13] {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, err
			}
			ticks += n
		}
	}
	return float64(ticks) / clkTck, nil
}

// rssPeakMB sums VmHWM over the fleet's processes.
func (f *fleet) rssPeakMB() (float64, error) {
	var kb int64
	for _, p := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		_, after, ok := strings.Cut(string(b), "VmHWM:")
		if !ok {
			return 0, fmt.Errorf("no VmHWM for %s", p.name)
		}
		n, err := strconv.ParseInt(strings.Fields(after)[0], 10, 64)
		if err != nil {
			return 0, err
		}
		kb += n
	}
	return float64(kb) / 1024, nil
}
