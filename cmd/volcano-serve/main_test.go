package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// buildTestDB authors a durable database file the way `volcano -db` does:
// disk device, formatted volume, one loaded table.
func buildTestDB(t *testing.T, rows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serve.vdb")
	reg := device.NewRegistry()
	id := reg.NextID()
	d, err := device.NewDisk(id, path, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Mount(d); err != nil {
		t.Fatal(err)
	}
	pool := buffer.NewPool(reg, 256, buffer.TwoLevel)
	vol, err := file.Format(pool, id)
	if err != nil {
		t.Fatal(err)
	}
	sch := record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
	)
	f, err := vol.Create("emp", sch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := f.Insert(sch.MustEncode(record.Int(int64(i)), record.Int(int64(i%4)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := vol.Save(); err != nil {
		t.Fatal(err)
	}
	if err := reg.CloseAll(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestServeEndToEnd boots the service on a generated database, runs a
// query over HTTP, checks the monitoring endpoints, and shuts down via
// the stop seam (the same path as SIGTERM).
func TestServeEndToEnd(t *testing.T) {
	const rows = 100
	db := buildTestDB(t, rows)

	ready := make(chan string, 1)
	metricsReady := make(chan string, 1)
	stop := make(chan struct{})
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(options{
			db:               db,
			addr:             "127.0.0.1:0",
			metricsAddr:      "127.0.0.1:0",
			frames:           256,
			maxConcurrent:    2,
			maxProducers:     16,
			maxQueue:         4,
			queueWait:        5 * time.Second,
			planCache:        16,
			drainTimeout:     10 * time.Second,
			readyHook:        func(addr string) { ready <- addr },
			metricsReadyHook: func(addr string) { metricsReady <- addr },
			stop:             stop,
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr
	var mbase string
	select {
	case maddr := <-metricsReady:
		mbase = "http://" + maddr
	case <-time.After(10 * time.Second):
		t.Fatal("metrics listener never became ready")
	}

	resp, err := http.Post(base+"/query", "text/plain", strings.NewReader("scan emp | filter dept = 1 | sort id desc"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	got, prev := 0, int64(1<<60)
	sc := bufio.NewScanner(resp.Body)
	var last map[string]any
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if last != nil {
			id := int64(last["id"].(float64))
			if id >= prev {
				t.Fatalf("ids not descending: %d after %d", id, prev)
			}
			prev = id
			got++
		}
		last = v
	}
	resp.Body.Close()
	if last["status"] != "ok" || got != rows/4 {
		t.Fatalf("trailer %v, rows %d (want %d)", last, got, rows/4)
	}
	res, ok := last["resources"].(map[string]any)
	if !ok {
		t.Fatalf("trailer has no resources block: %v", last)
	}
	if res["buffer_fixes"].(float64) <= 0 || res["rows_streamed"].(float64) != float64(got) {
		t.Fatalf("resources block not attributed: %v", res)
	}

	hz, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", hz.StatusCode)
	}
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParseText(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatalf("metrics scrape does not parse: %v", err)
	}
	for _, f := range []string{"volcano_server_admitted_total", "volcano_buffer_fixes_total"} {
		if fams[f] == 0 {
			t.Errorf("scrape missing family %s", f)
		}
	}

	// The -metrics listener serves the operations surface — the full
	// scrape (including the per-query accounting and Go runtime families
	// stamped by this build), /buildinfo, and the debug views — but not
	// /query.
	mm, err := http.Get(mbase + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mfams, err := metrics.ParseText(mm.Body)
	mm.Body.Close()
	if err != nil {
		t.Fatalf("metrics-listener scrape does not parse: %v", err)
	}
	for _, f := range []string{
		"volcano_server_query_cpu_seconds_total",
		"volcano_server_query_io_bytes_total",
		"volcano_server_query_buffer_fixes_total",
		"volcano_go_goroutines",
		"volcano_build_info",
	} {
		if mfams[f] == 0 {
			t.Errorf("metrics-listener scrape missing family %s", f)
		}
	}
	for path, want := range map[string]int{
		"/buildinfo":     http.StatusOK,
		"/debug/queries": http.StatusOK,
		"/debug/slowlog": http.StatusOK,
		"/query":         http.StatusNotFound,
	} {
		r, err := http.Get(mbase + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("metrics listener GET %s = %d, want %d", path, r.StatusCode, want)
		}
	}

	close(stop)
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not drain and exit")
	}
}

// TestServeSlowHeaderClientIsDisconnected is the slowloris regression
// test: a client that opens a connection and dribbles an incomplete
// request header must be cut off by ReadHeaderTimeout instead of holding
// the connection (and, behind admission control, eventually every
// connection) open indefinitely.
func TestServeSlowHeaderClientIsDisconnected(t *testing.T) {
	db := buildTestDB(t, 10)

	ready := make(chan string, 1)
	stop := make(chan struct{})
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(options{
			db:                db,
			addr:              "127.0.0.1:0",
			frames:            256,
			drainTimeout:      10 * time.Second,
			readHeaderTimeout: 300 * time.Millisecond,
			readyHook:         func(addr string) { ready <- addr },
			stop:              stop,
		})
	}()
	defer func() {
		close(stop)
		select {
		case err := <-runErr:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not drain and exit")
		}
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial header and then go silent, like a slowloris client.
	if _, err := io.WriteString(conn, "POST /query HTTP/1.1\r\nHost: volcano\r\nX-Slow"); err != nil {
		t.Fatal(err)
	}
	// The server must sever the connection around ReadHeaderTimeout; the
	// read unblocks with EOF/reset. The generous bound guards against a
	// regression to "held open indefinitely" without timing sensitivity.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open %v after partial headers", time.Since(start))
			}
			break // EOF or reset: the server hung up.
		}
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("server took %v to drop a slow-header client", elapsed)
	}

	// The service itself is unharmed: a well-formed query still works.
	resp, err := http.Post("http://"+addr+"/query", "text/plain", strings.NewReader("scan emp"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after slowloris: status %d", resp.StatusCode)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

// TestServeRefusesBatchBelowOne runs main in a child process with -batch 0:
// it must exit non-zero before serving, naming 1 as the record-at-a-time
// size.
func TestServeRefusesBatchBelowOne(t *testing.T) {
	if os.Getenv("VOLCANO_SERVE_MAIN") == "1" {
		os.Args = []string{"volcano-serve", "-db", "unused.vdb", "-addr", "127.0.0.1:0", "-batch", "0"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestServeRefusesBatchBelowOne$")
	cmd.Env = append(os.Environ(), "VOLCANO_SERVE_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("volcano-serve -batch 0: err %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "1 is record-at-a-time") {
		t.Fatalf("refusal does not name the record-at-a-time size:\n%s", out)
	}
}

// TestServeSigtermRightAfterHealthz runs the real binary and stops it the
// way a supervisor does, the instant /healthz first answers 200: the
// signal must start a drain and a clean exit, never kill the process.
func TestServeSigtermRightAfterHealthz(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "volcano-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	db := buildTestDB(t, 10)
	// Reserve a port so /healthz can be polled from before the banner.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	for round := 0; round < 5; round++ {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-db", db, "-addr", addr)
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := http.Get("http://" + addr + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				_ = cmd.Process.Kill()
				t.Fatalf("round %d: /healthz never answered 200: %v\n%s", round, err, stderr.String())
			}
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("round %d: exit after SIGTERM: %v\n%s", round, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "drained") {
			t.Fatalf("round %d: exited without draining:\n%s", round, stderr.String())
		}
	}
}

func TestServeRequiresDB(t *testing.T) {
	if err := run(options{}); err == nil || !strings.Contains(err.Error(), "-db") {
		t.Fatalf("run without -db: %v, want usage error", err)
	}
}
