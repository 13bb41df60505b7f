// Package node runs one Volcano process: it opens a durable database
// file, serves it with a server.Server — POST /query for clients, POST
// /fragment for a coordinator's shipped fragments — and drains on
// SIGINT/SIGTERM: admission stops, in-flight queries and fragments
// finish, then the volume closes. Every node runs the same code; flags
// decide whether it also coordinates a fleet (Dist, Workers) or joins one
// (Coordinator). volcano-serve and volcano-worker only parse flags into
// an Options.
package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/server"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// registerEvery is how often a node that joined a coordinator announces
// itself again: a node or a coordinator that restarts re-converges
// without operator action.
const registerEvery = 10 * time.Second

// Options carries everything a node needs: each field is one flag of
// volcano-serve (its help text says more), and tests construct them
// directly. Zero values pick the defaults.
type Options struct {
	DB           string
	Addr         string
	MetricsAddr  string // a second listener: the operations surface without /query
	Frames       int
	DrainTimeout time.Duration // 0 = 30s
	// Server is the query server's configuration: admission, plan cache,
	// batch size, costing, slow-query log. Run fills in what a node
	// derives itself — storage, catalog, metrics, coordinator — and the
	// slow-log sink from QueryLog.
	Server      server.Config
	QueryLog    string // slow-query entries as JSON lines, beside the /debug/slowlog ring
	Workers     string // comma-separated worker addresses; non-empty switches the coordinator on
	Dist        bool   // the coordinator on with an empty fleet, which nodes join
	Coordinator string // a coordinator to join as a worker: at once, then every registerEvery

	// Connection hygiene: zero values get production defaults in Run
	// so the test seam is hardened the same way the flags are.
	// The per-flush write-stall bound is Server.WriteStallTimeout.
	ReadHeaderTimeout time.Duration // slow-header (slowloris) bound
	ReadTimeout       time.Duration // whole-request read bound (plan bodies are small)
	IdleTimeout       time.Duration // keep-alive idle bound

	// Test seams: ReadyHook and MetricsReadyHook are called with each
	// listener's bound address once it accepts connections; Stop, when
	// readable, drains the node as SIGTERM does.
	ReadyHook        func(addr string)
	MetricsReadyHook func(addr string)
	Stop             <-chan struct{}
}

// Run serves o.DB until a signal or o.Stop drains it.
func Run(o Options) error {
	if o.DB == "" {
		return fmt.Errorf("no database: use -db FILE (create one with volcano -db)")
	}
	if o.Coordinator != "" {
		// A node registers the address it binds, and a wildcard host
		// would reach the coordinator as the coordinator's own.
		if host, _, err := net.SplitHostPort(o.Addr); err == nil && (host == "" || net.ParseIP(host).IsUnspecified()) {
			return fmt.Errorf("-coordinator: -addr %q has no host the coordinator can dial: bind a specific address", o.Addr)
		}
	}
	name := filepath.Base(os.Args[0])
	// Options built directly (tests, embedding) get the same connection
	// hygiene as the flag defaults; an explicit negative disables a bound.
	if o.ReadHeaderTimeout == 0 {
		o.ReadHeaderTimeout = 5 * time.Second
	}
	if o.ReadTimeout == 0 {
		o.ReadTimeout = 30 * time.Second
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.Server.WriteStallTimeout == 0 {
		o.Server.WriteStallTimeout = 2 * time.Minute
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 30 * time.Second
	}

	// Storage: the served volume on a disk device, temp space for sorts
	// and hash spills on a memory device, one buffer pool over both.
	reg := device.NewRegistry()
	baseID := reg.NextID()
	disk, err := device.OpenDisk(baseID, o.DB)
	if err != nil {
		return err
	}
	if err := reg.Mount(disk); err != nil {
		return err
	}
	tempID := reg.NextID()
	if err := reg.Mount(device.NewMem(tempID)); err != nil {
		return err
	}
	defer reg.CloseAll()

	pool := buffer.NewPool(reg, o.Frames, buffer.TwoLevel)
	base, err := file.OpenVolume(pool, baseID)
	if err != nil {
		return err
	}
	env := core.NewEnv(pool, file.NewVolume(pool, tempID))

	mr := metrics.NewRegistry()
	pool.RegisterMetrics(mr)
	device.RegisterMetrics(mr)
	btree.RegisterMetrics(mr)
	core.RegisterMetrics(mr)
	metrics.RegisterGoRuntime(mr)

	// The slow-query file sink outlives the server: closed on return,
	// after the drain has flushed every in-flight query's entry.
	if o.QueryLog != "" {
		f, err := os.OpenFile(o.QueryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("query log: %w", err)
		}
		defer f.Close()
		o.Server.SlowLogSink = f
	}

	// Distributed execution: one coordinator owns the worker registry and
	// the dispatch client; producer fragments ship to the fleet, and
	// stream back in their dispatch responses, while root fragments run
	// in this process.
	var coord *dist.Coordinator
	if o.Dist || o.Workers != "" {
		coord = dist.NewCoordinator(dist.CoordinatorConfig{Metrics: mr})
		defer coord.Close()
		for _, a := range strings.Split(o.Workers, ",") {
			if a = strings.TrimSpace(a); a == "" {
				continue
			}
			if err := coord.Register(a); err != nil {
				return err
			}
		}
		fmt.Fprintf(os.Stderr, "%s: distributed execution on: %d workers registered\n",
			name, coord.LiveWorkers())
	}

	cfg := o.Server
	cfg.Env, cfg.Catalog, cfg.CatalogVersion = env, plan.VolumeCatalog{base}, dist.CatalogVersion(o.DB, base)
	cfg.Metrics, cfg.Dist = mr, coord
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	// The signal handler goes in before the listener exists: a supervisor
	// may stop the server the moment /healthz answers, and that SIGTERM
	// must start a drain, not kill the process.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return err
	}
	// Connection hygiene: a client that dribbles headers, never finishes
	// its body, or parks an idle keep-alive connection is bounded here;
	// the per-flush write-stall deadline for established streams lives in
	// the server package (http.Server.WriteTimeout would cap total stream
	// duration, which NDJSON streaming cannot accept). Negative flag
	// values disable a bound (http.Server treats negative as none).
	// ConnContext lets a fragment response cap its connection's send
	// buffer, the wire path's transmit window.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: o.ReadHeaderTimeout,
		ReadTimeout:       o.ReadTimeout,
		IdleTimeout:       o.IdleTimeout,
		ConnContext:       dist.ConnContext,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "%s: build %s\n", name, metrics.ReadBuildInfo())
	fmt.Fprintf(os.Stderr, "%s: %s: %d tables, %d indexes; serving on http://%s\n",
		name, o.DB, len(base.List()), len(base.Indexes()), ln.Addr())

	// Optional operations listener: the monitoring surface without /query.
	var metricsSrv *http.Server
	if o.MetricsAddr != "" {
		mln, err := net.Listen("tcp", o.MetricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mmux := http.NewServeMux()
		metrics.Mount(mmux, mr)
		srv.MountDebug(mmux)
		metricsSrv = &http.Server{Handler: mmux, ReadHeaderTimeout: o.ReadHeaderTimeout}
		go func() { _ = metricsSrv.Serve(mln) }()
		fmt.Fprintf(os.Stderr, "%s: metrics on http://%s\n", name, mln.Addr())
		if o.MetricsReadyHook != nil {
			o.MetricsReadyHook(mln.Addr().String())
		}
	}
	defer func() {
		if metricsSrv != nil {
			_ = metricsSrv.Close()
		}
	}()

	// Joining a fleet: announce the bound address now, then refresh.
	// Failures are logged and retried — the coordinator may simply not
	// be up yet.
	var reregister <-chan time.Time
	failures := 0
	announce := func() {
		if err := register(o.Coordinator, ln.Addr().String()); err != nil {
			if failures%10 == 0 { // don't spam a down coordinator
				fmt.Fprintf(os.Stderr, "%s: register with %s: %v\n", name, o.Coordinator, err)
			}
			failures++
		} else {
			failures = 0
		}
	}
	if o.Coordinator != "" {
		tick := time.NewTicker(registerEvery)
		defer tick.Stop()
		reregister = tick.C
		announce()
	}

	if o.ReadyHook != nil {
		o.ReadyHook(ln.Addr().String())
	}

wait:
	for {
		select {
		case sig := <-sigc:
			fmt.Fprintf(os.Stderr, "%s: %v: draining\n", name, sig)
			break wait
		case <-o.Stop:
			fmt.Fprintf(os.Stderr, "%s: stop requested: draining\n", name)
			break wait
		case err := <-errc:
			return fmt.Errorf("serve: %w", err)
		case <-reregister:
			announce()
		}
	}

	// Graceful drain: reject new work, finish in-flight queries and
	// fragments, then stop the HTTP machinery and (via the deferred
	// CloseAll) the volume.
	ctx, cancel := context.WithTimeout(context.Background(), o.DrainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		_ = httpSrv.Close()
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		_ = httpSrv.Close()
	}
	fmt.Fprintf(os.Stderr, "%s: drained\n", name)
	return nil
}

// registerClient bounds a registration, which runs on the node's main
// loop: a hung coordinator must not hold up a drain.
var registerClient = &http.Client{Timeout: 2 * time.Second}

// register announces the node's address to the coordinator.
func register(coordinator, addr string) error {
	body, _ := json.Marshal(dist.RegisterRequest{Addr: addr})
	resp, err := registerClient.Post("http://"+coordinator+"/dist/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator answered %s", resp.Status)
	}
	return nil
}
