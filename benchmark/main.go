// Command benchmark measures volcano-serve from outside: it builds the
// served binaries, generates a seeded database, starts the server (and
// workers) as child processes, drives one workload over HTTP from a closed
// loop, checks every response against a reference evaluator, and prints
// the metrics BENCHMARK.json names. See README.md.
//
//	go run ./benchmark --workload point_mix --seed 1 --seconds 15 --trace 0
//	go run ./benchmark compare old.json new.json
//
// Run it from the root of the checkout. It imports only the storage stack
// (internal/storage/..., internal/record), to build the database and for
// the storage probes; everything else is reached through binary flags, the
// plan language and HTTP.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything a run writes: binaries, the temporary database
// and, unless -out says otherwise, results. The driver's checkout and the
// repository's .gitignore both know it by this name.
const buildDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rows     int
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer cancel()
	var err error
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		err = compareMain(os.Args[2:])
	} else {
		err = runMain(ctx, os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		cancel()
		os.Exit(1)
	}
}

func runMain(ctx context.Context, args []string) error {
	var cfg config
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	// The driver passes the first four flags.
	fs.StringVar(&cfg.workload, "workload", "", "workload to run, one of those in "+specFile)
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the data and the request literals")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured window (0 = run_seconds of "+specFile+")")
	fs.Func("trace", "1 measures the per-layer metrics, 0 the end-to-end metrics", func(s string) error {
		n, err := strconv.Atoi(s)
		cfg.trace = n != 0
		return err
	})
	fs.IntVar(&cfg.rows, "rows", 100000, "rows in emp")
	out := fs.String("out", filepath.Join(buildDir, "out"), "directory for results.json and trace.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*out, "results.json"), b, 0o644); err != nil {
		return err
	}
	if res.tracer != nil {
		if err := res.tracer.write(filepath.Join(*out, "trace.json")); err != nil {
			return err
		}
	}
	// The contract's result: one JSON object, the last line on stdout.
	line, err := json.Marshal(res.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// harness owns the processes of a run: at most one fleet at a time.
type harness struct {
	binDir, db string
	f          *fleet
	pids       []int // every child ever started
}

func (h *harness) start(serveArgs []string, workers int) error {
	if err := h.stop(); err != nil {
		return err
	}
	f, err := startFleet(h.binDir, h.db, serveArgs, workers)
	if err != nil {
		return err
	}
	h.f = f
	for _, p := range f.procs {
		h.pids = append(h.pids, p.cmd.Process.Pid)
	}
	return nil
}

func (h *harness) stop() error {
	if h.f == nil {
		return nil
	}
	err := h.f.stop()
	h.f = nil
	return err
}

// run performs one whole benchmark run and leaves nothing behind: every
// child is stopped and reaped and the temporary directory removed on every
// return path.
func run(ctx context.Context, cfg config) (res *results, err error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.seconds == 0 {
		cfg.seconds = spec.RunSeconds
	}
	if cfg.seconds <= 0 || cfg.rows < 1000 {
		return nil, fmt.Errorf("need -seconds > 0 and -rows >= 1000")
	}
	// The load generator shares the machine with the servers; more client
	// goroutines than cores would measure its own queueing.
	if wl.clients > runtime.NumCPU() {
		return nil, fmt.Errorf("workload %s needs %d clients, this machine has %d CPUs", wl.name, wl.clients, runtime.NumCPU())
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.clients))

	h := &harness{binDir: filepath.Join(buildDir, "bin")}
	if err := os.MkdirAll(h.binDir, 0o755); err != nil {
		return nil, err
	}
	if err := buildBinaries(h.binDir); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	h.db = filepath.Join(tmp, "db.vdb")
	defer func() {
		if serr := h.stop(); serr != nil && err == nil {
			err = serr
		}
		if err != nil {
			res = nil
		}
	}()

	ds := genData(cfg.seed, cfg.rows)
	q := newQueries(ds)
	seqs := make([][]*request, wl.clients)
	for ci := range seqs {
		seqs[ci] = wl.sequence(rand.New(rand.NewSource(cfg.seed*1000+int64(ci))), q)
	}

	// Set-up, several times over: generate and load the database, start the
	// processes, wait until they are ready. The last one is measured on.
	var setupS []float64
	for i := 0; i < setups; i++ {
		if err := h.stop(); err != nil {
			return nil, err
		}
		t := time.Now()
		if err := buildDatabase(h.db, ds); err != nil {
			return nil, err
		}
		if err := h.start(wl.serveArgs, wl.workers); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}

	res = &results{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	defer func() {
		if res != nil {
			res.pids = h.pids
		}
	}()
	m := metricSet{spec: spec, values: make(map[string]metricValue)}
	pass := func(seconds float64, tr *tracer) (*window, error) {
		w, err := runWindow(ctx, h.f, seqs, time.Duration(seconds*float64(time.Second)), tr)
		res.count(w)
		if err := errors.Join(err, ctx.Err()); err != nil {
			return nil, err
		}
		if w.ok() == 0 {
			return nil, fmt.Errorf("no operation succeeded: %v", w.firstErr)
		}
		return w, nil
	}
	// Warm-up fills the buffer pool and the plan cache.
	if _, err := pass(min(3, cfg.seconds/5), nil); err != nil {
		return nil, err
	}

	if !cfg.trace {
		w, err := pass(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		rss, err := h.f.rssPeakMB()
		if err != nil {
			return nil, err
		}
		res.Samples = w.ok()
		m.set("setup_s", median(setupS))
		m.set("ops_per_s", w.opsPerS())
		m.set("lat_p50_ms", median(w.lat))
		m.set("ttfr_p50_ms", median(w.ttfr))
		m.set("cpu_s_per_op", w.cpu/float64(w.ok()))
		m.set("rss_peak_mb", rss)
		return res, m.into(res, spec.EndToEnd)
	}

	// Traced run: a short untraced pass for the overhead ratio, the traced
	// pass, then the ladder on servers of its own and the storage probes.
	plain, err := pass(cfg.seconds/5, nil)
	if err != nil {
		return nil, err
	}
	before, _ := get(h.f.url() + "/metrics")
	res.tracer = newTracer()
	w, err := pass(cfg.seconds/5, res.tracer)
	if err != nil {
		return nil, err
	}
	after, _ := get(h.f.url() + "/metrics")
	res.Samples = w.ok()
	workloadLayers(m, w, scrapeDelta(before, after))
	m.set("trace.overhead_ratio", w.opsPerS()/plain.opsPerS())

	// The ladder's pool holds every table and temporary at once, so no
	// rung's time depends on what an earlier rung evicted.
	l, lw := newLadder(q), &window{}
	bigPool := []string{"-frames", "8192"}
	budget := time.Duration(cfg.seconds * 0.6 * float64(time.Second))
	for _, part := range []struct {
		remote  bool
		workers int
		budget  time.Duration
	}{{false, 0, budget * 4 / 5}, {true, 2, budget / 5}} {
		if err := h.start(bigPool, part.workers); err != nil {
			return nil, err
		}
		l.run(ctx, h.f.url(), part.remote, part.budget, lw)
	}
	res.count(lw)
	if err := errors.Join(h.stop(), ctx.Err()); err != nil {
		return nil, err
	}
	l.metrics(m)
	if err := probeStorage(h.db, ds, rand.New(rand.NewSource(cfg.seed)), m); err != nil {
		return nil, err
	}
	return res, m.into(res, spec.PerLayer)
}

// workloadLayers derives the per-layer numbers of the traced pass from the
// trailers, the client's own timings and the server's /metrics.
func workloadLayers(m metricSet, w *window, scrape map[string]float64) {
	a, n := &w.sums, float64(w.ok())
	m.set("client.lat_p95_ms", percentile(w.lat, 0.95))
	m.set("server.ttfb_ms", median(w.ttfb))
	m.set("server.plan_ms", median(a.planMs))
	m.set("server.queued_ms", median(a.queuedMs))
	m.set("server.execute_ms", median(a.executeMs))
	m.set("server.stream_ms", median(a.streamMs))
	hits, misses := scrape["volcano_server_plan_cache_hits_total"], scrape["volcano_server_plan_cache_misses_total"]
	m.set("server.plan_cache_hit_ratio", ratio(hits, hits+misses))
	m.set("server.rejected_per_op", scrape["volcano_server_rejected_total"]/n)
	m.set("buffer.hit_ratio", ratio(float64(a.hits), float64(a.fixes)))
	m.set("buffer.fixes_per_op", float64(a.fixes)/n)
	m.set("device.reads_per_op", float64(a.reads)/n)
	m.set("device.writes_per_op", float64(a.writes)/n)
	m.set("core.exchange_packets_per_op", float64(a.xPackets)/n)
	m.set("core.exchange_records_per_op", float64(a.xRecords)/n)
	m.set("dist.wire_bytes_per_op", float64(a.wireBytes)/n)
	m.set("dist.retries_per_op", float64(a.retries)/n)
	m.set("meter.cpu_s_per_op", a.cpuSeconds/n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrapeDelta parses two Prometheus text expositions and returns, per
// metric family, the increase of the sum over its label sets.
func scrapeDelta(before, after string) map[string]float64 {
	sum := func(text string, sign float64, into map[string]float64) {
		for _, line := range strings.Split(text, "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			name, _, _ := strings.Cut(line[:i], "{")
			into[name] += sign * v
		}
	}
	d := make(map[string]float64)
	sum(after, 1, d)
	sum(before, -1, d)
	return d
}
