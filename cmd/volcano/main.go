// Command volcano runs a plan-language query over CSV data.
//
// Usage:
//
//	volcano -schema emp=id:int,dept:int,salary:float,name:string \
//	        -load emp=emp.csv \
//	        [-partition emp:4] \
//	        (-plan query.vp | -q 'scan emp | filter dept = 2')
//
// The plan language is documented in internal/plan (and the README).
// Tables are loaded into buffer-managed virtual devices; -partition
// splits a loaded table into k partition files "name.0".."name.k-1"
// (round robin) for use with pscan under an exchange operator.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
	"repro/internal/trace"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(s string) error { *r = append(*r, s); return nil }

// observabilityHelp documents how the three observability flags compose;
// appended to -help output by both this command and volcano-bench.
const observabilityHelp = `
Observability flags (compose freely):

  flag           output                                       cost when off
  -analyze       EXPLAIN ANALYZE report on stderr: rows,      none (plans built
                 calls, open/next/close times and p50/p95/    without wrappers)
                 p99 Next latency per operator
  -trace FILE    Chrome trace-event JSON of the run: the      none (nil tracer
                 exchange protocol and operator calls;        is a no-op)
                 open in Perfetto
  -metrics ADDR  live HTTP endpoint for the run: GET          none (nil registry
                 /metrics serves Prometheus text exposition   is a no-op)
                 (buffer, device, btree and exchange
                 families), /debug/pprof serves the
                 standard Go profiles

All three may be given together: one run then produces the analyze
report, the trace file, and a scrapeable endpoint at once.
`

// options carries everything a volcano invocation needs; flags in main
// fill one in, tests construct them directly.
type options struct {
	planFile string
	query    string
	frames   int
	explain  bool
	analyze  bool
	// cost runs the plan through the cost-based planning pass before
	// execution: table statistics gathered at load time fill whatever
	// knobs the plan text leaves open (exchange parallelism, packet
	// sizes, hash-vs-merge strategy via choose-plan).
	cost    bool
	maxRows int
	// batch is the batch size the plan is built and drained at:
	// operators pull their inputs in batches of this size and the result
	// printer drains the root via NextBatch (0 = core.DefaultBatchSize).
	batch     int
	db        string
	dbPages   int
	tracePath string
	// metricsAddr, when non-empty, serves /metrics and /debug/pprof on
	// that address for the duration of the run: the buffer, device,
	// btree and exchange families.
	metricsAddr string
	schemas     []string
	loads       []string
	partitions  []string

	// metricsHook, when set, is called with the live listener address
	// after the query has run but before the server shuts down. Test
	// seam: lets a test scrape a fully populated endpoint.
	metricsHook func(addr string)
}

func main() {
	var o options
	var schemas, loads, partitions repeated
	flag.StringVar(&o.planFile, "plan", "", "file containing the plan script")
	flag.StringVar(&o.query, "q", "", "inline plan script")
	flag.IntVar(&o.frames, "frames", 4096, "buffer pool frames")
	flag.BoolVar(&o.explain, "explain", false, "print the plan instead of running it")
	flag.BoolVar(&o.analyze, "analyze", false, "after running, print the plan with per-operator statistics")
	flag.BoolVar(&o.cost, "cost", false, "cost the plan first: pick unset exchange parallelism, packet sizes and match strategy from table statistics")
	flag.IntVar(&o.maxRows, "maxrows", 0, "print at most this many rows (0 = all)")
	flag.IntVar(&o.batch, "batch", core.DefaultBatchSize, fmt.Sprintf("batch size for query execution, 1..%d (1 = record-at-a-time)", core.MaxBatchSize))
	flag.StringVar(&o.db, "db", "", "durable database file: created if absent, loaded tables persist")
	flag.IntVar(&o.dbPages, "dbpages", 1<<18, "capacity in pages when creating a new -db file")
	flag.StringVar(&o.tracePath, "trace", "", "record the run and write Chrome trace-event JSON to this file (open in Perfetto or chrome://tracing)")
	flag.StringVar(&o.metricsAddr, "metrics", "", "serve /metrics (Prometheus text exposition) and /debug/pprof on this address during the run")
	flag.Var(&schemas, "schema", "table schema: name=field:type,... (repeatable)")
	flag.Var(&loads, "load", "load CSV: name=path (repeatable; needs -schema for name)")
	flag.Var(&partitions, "partition", "split a table: name:k (repeatable)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage: volcano [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprint(out, observabilityHelp)
	}
	flag.Parse()
	o.schemas, o.loads, o.partitions = schemas, loads, partitions
	if err := core.CheckBatchSize(o.batch); err != nil {
		fmt.Fprintln(os.Stderr, "volcano: -batch:", err)
		os.Exit(2)
	}

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "volcano:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	script := o.query
	if o.planFile != "" {
		b, err := os.ReadFile(o.planFile)
		if err != nil {
			return err
		}
		script = string(b)
	}
	if script == "" {
		return fmt.Errorf("no plan: use -plan FILE or -q 'SCRIPT'")
	}
	node, err := plan.Parse(script)
	if err != nil {
		return err
	}
	if o.explain && !o.cost {
		fmt.Print(plan.Explain(node))
		return nil
	}

	// Set up the world. With -db the base volume is a durable disk
	// volume; otherwise a throwaway memory volume.
	reg := device.NewRegistry()
	baseID := reg.NextID()
	durable := o.db != ""
	created := false
	if durable {
		if _, statErr := os.Stat(o.db); statErr != nil {
			d, err := device.NewDisk(baseID, o.db, uint32(o.dbPages))
			if err != nil {
				return err
			}
			created = true
			if err := reg.Mount(d); err != nil {
				return err
			}
		} else {
			d, err := device.OpenDisk(baseID, o.db)
			if err != nil {
				return err
			}
			if err := reg.Mount(d); err != nil {
				return err
			}
		}
	} else if err := reg.Mount(device.NewMem(baseID)); err != nil {
		return err
	}
	tempID := reg.NextID()
	if err := reg.Mount(device.NewMem(tempID)); err != nil {
		return err
	}
	defer reg.CloseAll()
	pool := buffer.NewPool(reg, o.frames, buffer.TwoLevel)
	var tracer *trace.Tracer
	if o.tracePath != "" {
		tracer = trace.New()
	}
	var msrv *metrics.Server
	if o.metricsAddr != "" {
		mr := metrics.NewRegistry()
		pool.RegisterMetrics(mr)
		device.RegisterMetrics(mr)
		btree.RegisterMetrics(mr)
		core.RegisterMetrics(mr)
		msrv, err = metrics.Serve(o.metricsAddr, mr)
		if err != nil {
			return err
		}
		defer msrv.Close()
		fmt.Fprintf(os.Stderr, "metrics: serving /metrics and /debug/pprof on http://%s\n", msrv.Addr)
	}
	var base *file.Volume
	switch {
	case durable && created:
		var err error
		if base, err = file.Format(pool, baseID); err != nil {
			return err
		}
	case durable:
		var err error
		if base, err = file.OpenVolume(pool, baseID); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "database %s: %d tables, %d indexes\n", o.db, len(base.List()), len(base.Indexes()))
	default:
		base = file.NewVolume(pool, baseID)
	}
	env := core.NewEnv(pool, file.NewVolume(pool, tempID))

	schemaByName := map[string]*record.Schema{}
	for _, s := range o.schemas {
		name, spec, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("bad -schema %q (want name=field:type,...)", s)
		}
		sch, err := parseSchema(spec)
		if err != nil {
			return fmt.Errorf("-schema %s: %w", name, err)
		}
		schemaByName[name] = sch
	}

	cat := plan.VolumeCatalog{base}
	for _, l := range o.loads {
		name, path, ok := strings.Cut(l, "=")
		if !ok {
			return fmt.Errorf("bad -load %q (want name=path)", l)
		}
		sch, ok := schemaByName[name]
		if !ok {
			return fmt.Errorf("-load %s: no -schema for table", name)
		}
		f, err := loadCSV(base, name, sch, path)
		if err != nil {
			return fmt.Errorf("-load %s: %w", name, err)
		}
		// Freshly loaded data is in the buffer pool anyway, so gathering
		// statistics now is nearly free — and it is what lets -cost (here
		// or in a later volcano-serve run over the same -db) estimate.
		if _, err := base.Analyze(name); err != nil {
			return fmt.Errorf("-load %s: analyze: %w", name, err)
		}
		fmt.Fprintf(os.Stderr, "loaded %s: %d records, %d pages\n", name, f.Records(), f.Pages())
	}

	for _, p := range o.partitions {
		name, kstr, ok := strings.Cut(p, ":")
		k, err := strconv.Atoi(kstr)
		if !ok || err != nil || k < 1 {
			return fmt.Errorf("bad -partition %q (want name:k)", p)
		}
		src, err := cat.Lookup(name)
		if err != nil {
			return fmt.Errorf("-partition %s: %w", name, err)
		}
		if err := partitionTable(base, src, name, k); err != nil {
			return err
		}
		for p := 0; p < k; p++ {
			if _, err := base.Analyze(fmt.Sprintf("%s.%d", name, p)); err != nil {
				return fmt.Errorf("-partition %s: analyze: %w", name, err)
			}
		}
		fmt.Fprintf(os.Stderr, "partitioned %s into %d files\n", name, k)
	}

	// With -cost, re-derive the plan through the costing pass now that
	// the catalog (and its load-time statistics) exists; the costed tree
	// replaces the parsed one for explain, build and the analyze report.
	var estimates map[*plan.Node]int64
	if o.cost {
		tpl, err := plan.Compile(script)
		if err != nil {
			return err
		}
		cp := tpl.Cost(cat, nil)
		node = cp.Template.Root()
		estimates = cp.Estimates
	}
	if o.explain {
		fmt.Print(plan.Explain(node))
		return nil
	}

	// BuildWith composes all the facilities: -trace implies the observed
	// build even without -analyze (the operator spans live in the
	// instrumentation wrappers), and -batch sets the batch size every
	// operator and exchange boundary pulls with. The process runs one
	// query, so the pool's delta over the run is that query's.
	poolBase := pool.Stats()
	it, analysis, err := plan.BuildWith(env, cat, node, plan.BuildOptions{
		Analyze:   o.analyze,
		Tracer:    tracer,
		BatchSize: o.batch,
		Estimates: estimates,
	})
	if err != nil {
		return err
	}
	if err := printResult(it, o.maxRows, o.batch); err != nil {
		return err
	}
	if o.analyze {
		fmt.Fprint(os.Stderr, analysis.String())
		st := pool.Stats().Sub(poolBase)
		balance := "pins balanced"
		if st.CurrentlyFixedHint != 0 {
			balance = fmt.Sprintf("PIN LEAK: %d outstanding", st.CurrentlyFixedHint)
		}
		fmt.Fprintf(os.Stderr, "buffer: fixes=%d hits=%d misses=%d reads=%d writes=%d extra-pins=%d (%s)\n",
			st.Fixes, st.Hits, st.Misses, st.Reads, st.Writes, st.ExtraPins, balance)
	}
	if tracer.Enabled() {
		if err := writeTrace(tracer, o.tracePath); err != nil {
			return err
		}
	}
	if durable {
		if err := base.Save(); err != nil {
			return fmt.Errorf("saving database: %w", err)
		}
		fmt.Fprintf(os.Stderr, "database saved to %s\n", o.db)
	}
	if msrv != nil && o.metricsHook != nil {
		o.metricsHook(msrv.Addr)
	}
	return nil
}

// writeTrace dumps the recorded events as Chrome trace-event JSON.
func writeTrace(tr *trace.Tracer, path string) error {
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

// parseSchema parses "id:int,name:string,...".
func parseSchema(spec string) (*record.Schema, error) {
	var fields []record.Field
	for _, part := range strings.Split(spec, ",") {
		name, typ, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad field %q (want name:type)", part)
		}
		var t record.Type
		switch strings.ToLower(typ) {
		case "int":
			t = record.TInt
		case "float":
			t = record.TFloat
		case "bool":
			t = record.TBool
		case "string":
			t = record.TString
		case "bytes":
			t = record.TBytes
		default:
			return nil, fmt.Errorf("unknown type %q", typ)
		}
		fields = append(fields, record.Field{Name: name, Type: t})
	}
	return record.NewSchema(fields...)
}

func loadCSV(vol *file.Volume, name string, sch *record.Schema, path string) (*file.File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	r := csv.NewReader(fh)
	r.ReuseRecord = true
	f, err := vol.Create(name, sch)
	if err != nil {
		return nil, err
	}
	vals := make([]record.Value, sch.NumFields())
	for {
		row, err := r.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, err
		}
		if len(row) != sch.NumFields() {
			return nil, fmt.Errorf("row has %d columns, schema has %d", len(row), sch.NumFields())
		}
		for i, cell := range row {
			v, err := parseValue(sch.Field(i).Type, cell)
			if err != nil {
				return nil, fmt.Errorf("column %s: %w", sch.Field(i).Name, err)
			}
			vals[i] = v
		}
		data, err := sch.Encode(vals)
		if err != nil {
			return nil, err
		}
		if _, err := f.Insert(data); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func parseValue(t record.Type, cell string) (record.Value, error) {
	switch t {
	case record.TInt:
		i, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
		return record.Int(i), err
	case record.TFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
		return record.Float(f), err
	case record.TBool:
		b, err := strconv.ParseBool(strings.TrimSpace(cell))
		return record.Bool(b), err
	case record.TBytes:
		return record.Bytes([]byte(cell)), nil
	default:
		return record.Str(cell), nil
	}
}

func partitionTable(vol *file.Volume, src *file.File, name string, k int) error {
	parts := make([]*file.File, k)
	for p := range parts {
		pf, err := vol.Create(fmt.Sprintf("%s.%d", name, p), src.Schema())
		if err != nil {
			return err
		}
		parts[p] = pf
	}
	sc := src.NewScan()
	defer sc.Close()
	i := 0
	for {
		r, ok, err := sc.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		_, err = parts[i%k].Insert(r.Data)
		r.Unfix()
		if err != nil {
			return err
		}
		i++
	}
}

func printResult(it core.Iterator, maxRows, batch int) error {
	if err := it.Open(); err != nil {
		return err
	}
	sch := it.Schema()
	var header []string
	for i := 0; i < sch.NumFields(); i++ {
		header = append(header, sch.Field(i).Name)
	}
	fmt.Println(strings.Join(header, "\t"))
	// One NextBatch refill per batch: each record is printed and the whole
	// batch's pins are released in one coalesced pass.
	b := core.NewBatch(batch)
	n := 0
	for {
		if err := it.NextBatch(b); err != nil {
			_ = it.Close()
			return err
		}
		if b.Len() == 0 {
			break
		}
		for _, r := range b.Recs() {
			if maxRows == 0 || n < maxRows {
				vals, err := sch.Decode(r.Data)
				if err != nil {
					b.Release()
					_ = it.Close()
					return err
				}
				cells := make([]string, len(vals))
				for i, v := range vals {
					cells[i] = v.String()
				}
				fmt.Println(strings.Join(cells, "\t"))
			}
			n++
		}
		b.Release()
	}
	fmt.Fprintf(os.Stderr, "(%d rows)\n", n)
	return it.Close()
}
