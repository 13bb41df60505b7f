// Command volcano-bench regenerates the paper's measurements (§5): the
// exchange-overhead table (T1), the packet-size sweep of Figures 2a/2b,
// and the ablation studies listed in DESIGN.md.
//
// Usage:
//
//	volcano-bench                      # everything, paper-scale (100k records)
//	volcano-bench -exp t1              # just the overhead table
//	volcano-bench -exp fig2a           # just the packet-size sweep
//	volcano-bench -exp ablations       # A1..A12
//	volcano-bench -records 20000       # smaller/faster runs
//	volcano-bench -json BENCH.json     # also emit machine-readable results
//	volcano-bench -trace out.json      # also record one traced pipeline pass
//	volcano-bench -analyze             # also run one instrumented pipeline pass
//	volcano-bench -metrics :9898       # serve /metrics + pprof during the run
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/storage/btree"
	"repro/internal/storage/device"
	"repro/internal/trace"
)

// observabilityHelp documents how the observability flags compose;
// appended to -help output (the volcano CLI carries the same table).
const observabilityHelp = `
Observability flags (compose freely):

  flag           output                                       cost when off
  -analyze       one instrumented pipeline pass: per-stage    none (measured
                 port counters plus sink Next-latency         passes stay
                 p50/p95/p99; summarised in the -json report  uninstrumented)
  -trace FILE    one traced pipeline pass written as Chrome   none (nil tracer
                 trace-event JSON; open in Perfetto           is a no-op)
  -metrics ADDR  live HTTP endpoint for the whole run: GET    none (nil registry
                 /metrics serves Prometheus text exposition,  is a no-op)
                 /debug/pprof the standard Go profiles

All three may be given together: the run then produces the breakdown,
the trace file, and a scrapeable endpoint at once.
`

// options carries one invocation's parameters; flags fill one in,
// tests construct them directly.
type options struct {
	exp      string
	records  int
	joinRows int
	// batch, when positive, also runs the Figure-2a pipeline at this
	// batch size and prints it against batch size 1, record-at-a-time.
	batch    int
	jsonPath string
	// tracePath records one traced pipeline pass as Chrome trace JSON.
	tracePath string
	// analyze runs one instrumented pipeline pass and prints its
	// breakdown; the latency summary also lands in the -json report.
	analyze bool
	// metricsAddr serves /metrics and /debug/pprof for the duration of
	// the run. The analyzed pass (if any) registers its buffer pool
	// there, so a scrape covers every metric family.
	metricsAddr string
	// linger keeps the metrics endpoint serving this long after the
	// experiments finish. Small record counts complete in well under a
	// second; the linger window guarantees an external scraper (CI, a
	// curl loop) lands at least one successful GET against the live
	// process.
	linger time.Duration

	// metricsHook, when set, is called with the live listener address
	// after all experiments have run but before the server shuts down.
	// Test seam: lets a test scrape a fully populated endpoint.
	metricsHook func(addr string)
}

func main() {
	var o options
	flag.StringVar(&o.exp, "exp", "all", "experiment: t1, fig2a, fig2b, ablations, all")
	flag.IntVar(&o.records, "records", bench.PaperRecords, "records for the record-passing program")
	flag.IntVar(&o.joinRows, "joinrows", 20000, "rows per side for the match ablation")
	flag.IntVar(&o.batch, "batch", 0, "also run the pipeline pass at this batch size and print it against batch size 1, record-at-a-time (0 = off)")
	flag.StringVar(&o.jsonPath, "json", "", "write machine-readable results (stable schema) to this file")
	flag.StringVar(&o.tracePath, "trace", "", "run one traced pipeline pass and write Chrome trace-event JSON to this file")
	flag.BoolVar(&o.analyze, "analyze", false, "run one instrumented pipeline pass and print the per-stage breakdown with latency quantiles")
	flag.StringVar(&o.metricsAddr, "metrics", "", "serve /metrics (Prometheus text exposition) and /debug/pprof on this address during the run")
	flag.DurationVar(&o.linger, "linger", 0, "with -metrics, keep the endpoint serving this long after the experiments finish (gives scrapers a guaranteed window)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage: volcano-bench [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprint(out, observabilityHelp)
	}
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "volcano-bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	w := os.Stdout
	runT1 := o.exp == "t1" || o.exp == "all"
	runFig2 := o.exp == "fig2a" || o.exp == "fig2b" || o.exp == "all"
	runAbl := o.exp == "ablations" || o.exp == "all"
	if !runT1 && !runFig2 && !runAbl {
		return fmt.Errorf("unknown experiment %q", o.exp)
	}
	report := bench.NewReport(o.records)

	var mr *metrics.Registry
	var msrv *metrics.Server
	if o.metricsAddr != "" {
		mr = metrics.NewRegistry()
		device.RegisterMetrics(mr)
		btree.RegisterMetrics(mr)
		core.RegisterMetrics(mr)
		var err error
		msrv, err = metrics.Serve(o.metricsAddr, mr)
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics and /debug/pprof on http://%s\n", msrv.Addr)
	}

	// The analyzed pass runs first so a scraper attached from the start
	// sees its buffer pool families straight away.
	if o.analyze {
		res, err := bench.RunAnalyzedPass(o.records, mr)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Analyzed pipeline pass (%d records, %v):\n%s\n\n",
			res.Records, res.Elapsed, res.Breakdown)
		report.AnalyzedPass = res.JSON()
	}

	if runT1 {
		r, err := bench.RunT1(o.records)
		if err != nil {
			return err
		}
		r.Print(w)
		fmt.Fprintln(w)
		report.T1 = r.JSON()
	}

	if runFig2 {
		r, err := bench.RunFig2(o.records)
		if err != nil {
			return err
		}
		r.Print(w)
		fmt.Fprintln(w)
		report.Fig2a = r.JSONPoints()
		report.Fig2bSlopes = r.JSONSlopes()
	}

	if o.batch > 0 {
		if err := core.CheckBatchSize(o.batch); err != nil {
			return err
		}
		// Same topology and packet size as the Figure-2a sweet spot, once
		// record-at-a-time and once at the given batch size.
		row, err := bench.RunFig2aPoint(o.records, 83, 1)
		if err != nil {
			return fmt.Errorf("batch comparison (batch size 1): %w", err)
		}
		bat, err := bench.RunFig2aPoint(o.records, 83, o.batch)
		if err != nil {
			return fmt.Errorf("batch comparison (batch size %d): %w", o.batch, err)
		}
		fmt.Fprintf(w, "Batch size %d against 1 (packet 83, %d records):\n", o.batch, o.records)
		fmt.Fprintf(w, "  batch size 1 (record-at-a-time): %v (%v/record)\n", row.Elapsed.Round(time.Microsecond), row.PerRecord)
		fmt.Fprintf(w, "  batch size %d: %v (%v/record), %.2fx speedup\n\n", o.batch,
			bat.Elapsed.Round(time.Microsecond), bat.PerRecord,
			float64(row.Elapsed)/float64(bat.Elapsed))
	}

	if runAbl {
		type namedAbl struct {
			name string
			f    func() (*bench.Ablation, error)
		}
		abls := []namedAbl{
			{"A1", func() (*bench.Ablation, error) { return bench.AblationFlowControl(o.records) }},
			{"A2", func() (*bench.Ablation, error) { return bench.AblationForkScheme(8, 2*time.Millisecond) }},
			{"A3", func() (*bench.Ablation, error) { return bench.AblationInline(o.records) }},
			{"A4", func() (*bench.Ablation, error) { return bench.AblationPartitioning(o.records) }},
			{"A5", func() (*bench.Ablation, error) { return bench.AblationBroadcast(o.records / 2) }},
			{"A6", func() (*bench.Ablation, error) { return bench.AblationMatch(o.joinRows) }},
			{"A7", func() (*bench.Ablation, error) { return bench.AblationDivision(2000, 16, 4) }},
			{"A8", func() (*bench.Ablation, error) { return bench.AblationSupportFunctions(o.records) }},
			{"A9", func() (*bench.Ablation, error) { return bench.AblationBufferLocking(o.records, 8) }},
			{"A10", func() (*bench.Ablation, error) { return bench.AblationParallelSort(o.records, 4) }},
			{"A11", func() (*bench.Ablation, error) { return bench.AblationSharedNothing(o.records, 500*time.Microsecond) }},
			{"A12", func() (*bench.Ablation, error) { return bench.AblationRunGeneration(o.records, 1024) }},
		}
		for _, na := range abls {
			a, err := na.f()
			if err != nil {
				return fmt.Errorf("%s: %w", na.name, err)
			}
			a.Print(w)
			fmt.Fprintln(w)
			report.Ablations = append(report.Ablations, a.JSON(na.name))
		}
	}

	if o.tracePath != "" {
		if err := runTraced(o.records, o.tracePath); err != nil {
			return err
		}
	}
	if o.jsonPath != "" {
		f, err := os.Create(o.jsonPath)
		if err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
		werr := report.WriteJSON(f)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("writing report: %w", werr)
		}
		if cerr != nil {
			return fmt.Errorf("writing report: %w", cerr)
		}
		fmt.Fprintf(os.Stderr, "results written to %s\n", o.jsonPath)
	}
	if msrv != nil && o.metricsHook != nil {
		o.metricsHook(msrv.Addr)
	}
	if msrv != nil && o.linger > 0 {
		fmt.Fprintf(os.Stderr, "metrics: lingering %v for scrapers\n", o.linger)
		time.Sleep(o.linger)
	}
	return nil
}

// runTraced records one pipeline pass (the Figure-2a topology) with the
// tracer attached and writes the Chrome trace.
func runTraced(records int, path string) error {
	tr := trace.New()
	if _, err := bench.RunTracedPass(records, tr); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	werr := tr.WriteChrome(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("writing trace: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("writing trace: %w", cerr)
	}
	if d := tr.TotalDropped(); d > 0 {
		fmt.Fprintf(os.Stderr, "trace written to %s (%d events dropped: ring buffers full)\n", path, d)
	} else {
		fmt.Fprintf(os.Stderr, "trace written to %s\n", path)
	}
	return nil
}
