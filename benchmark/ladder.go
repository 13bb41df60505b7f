package main

import (
	"context"
	"fmt"
	"time"
)

// rung is one plan of the ladder. Most rungs put one stage above a parent
// rung and return no rows, so the difference between the two medians is
// that stage's cost over the records it saw.
type rung struct {
	name string
	req  *request
	// fresh, when set, makes a new plan text for every repetition, so the
	// plan cache misses each time.
	fresh  func(rep int) *request
	remote bool // runs against the fleet, not the lone server
	// light rungs cost well under a millisecond. They are repeated
	// lightReps times a pass, interleaved with each other, so that none of
	// them is always the first request after a heavy one.
	light bool
	ms    []float64
	last  trailer
}

// ladder measures the served system one layer at a time from outside:
// single requests over one connection, repeated round-robin so that drift
// spreads over all rungs alike.
type ladder struct {
	q      *queries
	n      float64 // rows in emp
	nSmall float64 // rows in emp.0, which the single-operator rungs scan
	rungs  []*rung
	byName map[string]*rung
}

func newLadder(q *queries) *ladder {
	n := len(q.o.ds.emp)
	l := &ladder{q: q, n: float64(n), nSmall: float64((n + 3) / 4), byName: make(map[string]*rung)}
	add := func(name, plan string, want expect) *rung {
		r := &rung{name: name, req: newRequest(plan, want)}
		l.rungs = append(l.rungs, r)
		l.byName[name] = r
		return r
	}
	none := expect{}

	// void.0..3 are empty files: a scan of one is a request with no work
	// in it, and a pscan of all four ships fragments with no work in them.
	const dispatch = "pscan void 4 | exchange producers=4 packet=83"
	add("noop", "scan void.0", none).light = true
	add("cached", "scan void.0 | filter k < 0", none).light = true
	compile := add("compile", "", none)
	compile.light = true
	compile.fresh = func(rep int) *request {
		return newRequest(fmt.Sprintf("scan void.0 | filter k < %d", -1-rep), none)
	}
	add("iscan", "iscan emp emp_id 4242 4242", q.o.emp(4242, 4242, 0, colsAll)).light = true
	add("dispatch", dispatch, none).light = true
	remote := add("dist_dispatch", dispatch, none)
	remote.light, remote.remote = true, true

	// One stage above a scan of the 25 % partition emp.0; the closing
	// always-false filter keeps the rows off the wire.
	small := func(name, with, stage string) {
		add(name, with+"scan emp.0 | "+stage+" | filter id < 0", none)
	}
	const withDept = "with d = scan dept\n"
	const pred = `salary * 1.1 + 7.0 > 5000.0 AND name LIKE 'emp-a%'`
	add("scan_small", "scan emp.0 | filter id < 0", none)
	small("expr_compiled", "", "filter compiled "+pred)
	small("expr_interpreted", "", "filter interpreted "+pred)
	small("project", "", "project id, dept, salary * 1.1 as raised, name")
	add("agg_hash", "scan emp.0 | agg hash group dept compute count, sum(id), max(salary) | filter dept < 0", none)
	small("sort", "", "sort salary")
	small("match_hash", withDept, "join hash d on dept = dno")
	small("match_merge", withDept, "join merge d on dept = dno")

	// The exchange rungs hold total work fixed at one pass over all of emp
	// and vary only how it is split and shipped.
	const tail = " | filter id < 0"
	const (
		p2 = "pscan emp2 2 | exchange producers=2 packet=83" + tail
		p4 = "pscan emp 4 | exchange producers=4 packet=83" + tail
	)
	add("scan", "scan emp"+tail, none)
	add("exchange_p1", "scan emp | exchange producers=1 packet=83"+tail, none)
	add("exchange_p2", p2, none)
	add("exchange_p4", p4, none)
	add("exchange_pkt1", "pscan emp2 2 | exchange producers=2 packet=1"+tail, none)
	add("exchange_pkt255", "pscan emp2 2 | exchange producers=2 packet=255"+tail, none)
	add("batch64_scan", "scan emp"+tail, none).req.batch = "64"
	add("batch64_exchange_p2", p2, none).req.batch = "64"
	lo, hi := q.o.all()
	add("stream", "scan emp", q.o.emp(lo, hi, 0, colsAll))
	for _, dop := range []int{0, 2, 4} {
		r := q.par(dop)
		add(fmt.Sprintf("par%d", dop), r.plan, r.want)
	}

	// exchange_p4 again, on the fleet: every record crosses the wire.
	add("dist_wire", p4, none).remote = true
	return l
}

const (
	// minLadderReps is the least number of timed passes, whatever the budget.
	minLadderReps = 2
	lightReps     = 16
)

// run repeats the local or the remote rungs against url until budget is
// spent, but at least minLadderReps times after one repetition of warm-up.
// Every response is checked and counted in w.
func (l *ladder) run(ctx context.Context, url string, remote bool, budget time.Duration, w *window) {
	c := newClient(url)
	defer c.close()
	start := time.Now()
	for rep := 0; (rep <= minLadderReps || time.Since(start) < budget) && ctx.Err() == nil; rep++ {
		once := func(r *rung, i int) {
			req := r.req
			if r.fresh != nil {
				req = r.fresh(rep*lightReps + i)
			}
			s := c.do(req, "")
			w.add(&s)
			if rep > 0 && s.err == nil {
				r.ms = append(r.ms, ms(s.lastByte))
				r.last = s.trailer
			}
		}
		var light, heavy []*rung
		for _, r := range l.rungs {
			switch {
			case r.remote != remote:
			case r.light:
				light = append(light, r)
			default:
				heavy = append(heavy, r)
			}
		}
		for i := 0; i < lightReps; i++ {
			for j := range light {
				once(light[(i+j)%len(light)], i) // rotate, so each follows each
			}
		}
		for _, r := range heavy {
			once(r, 0)
		}
	}
}

// metrics turns rung medians into per-layer numbers.
func (l *ladder) metrics(m metricSet) {
	med := func(name string) float64 { return median(l.byName[name].ms) }
	// perRec is what a rung costs above its parent, in ns per record scanned.
	perRec := func(name, parent string, n float64) float64 { return (med(name) - med(parent)) * 1e6 / n }
	perSmall := func(name string) float64 { return perRec(name, "scan_small", l.nSmall) }

	m.set("server.req_overhead_us", med("noop")*1e3)
	m.set("plan.compile_us", (med("compile")-med("cached"))*1e3)
	m.set("btree.iscan_point_us", (med("iscan")-med("noop"))*1e3)
	m.set("file.scan_ns_per_rec", perRec("scan", "noop", l.n))
	m.set("expr.compiled_ns_per_rec", perSmall("expr_compiled"))
	m.set("expr.interpreted_ns_per_rec", perSmall("expr_interpreted"))
	m.set("core.project_ns_per_rec", perSmall("project"))
	m.set("core.agg_hash_ns_per_rec", perSmall("agg_hash"))
	m.set("core.sort_ns_per_rec", perSmall("sort"))
	m.set("core.sort_spill_pages", float64(l.byName["sort"].last.Resources.DeviceWrites))
	m.set("core.match_hash_ns_per_rec", perSmall("match_hash"))
	m.set("core.match_merge_ns_per_rec", perSmall("match_merge"))
	for _, x := range []string{"p1", "p2", "p4", "pkt1", "pkt255"} {
		m.set("core.exchange_"+x+"_ns_per_rec", perRec("exchange_"+x, "scan", l.n))
	}
	m.set("core.batch64_scan_ns_per_rec", perRec("batch64_scan", "noop", l.n))
	m.set("core.batch64_exchange_p2_ns_per_rec", perRec("batch64_exchange_p2", "batch64_scan", l.n))
	m.set("server.stream_ns_per_row", perRec("stream", "scan", l.n))
	m.set("server.stream_mb_per_s", float64(l.byName["stream"].last.Resources.BytesStreamed)/1e6/(med("stream")/1e3))
	m.set("dist.dispatch_us", (med("dist_dispatch")-med("dispatch"))*1e3)
	m.set("dist.wire_ns_per_rec", perRec("dist_wire", "exchange_p4", l.n))
	m.set("dist.wire_bytes_per_rec", float64(l.byName["dist_wire"].last.Dist.WireRecvBytes)/l.n)
	m.set("core.speedup_dop2", med("par0")/med("par2"))
	m.set("core.speedup_dop4", med("par0")/med("par4"))

	// What the rungs, each measured alone, predict for the dop-2 form of
	// the par query: the exchange_p2 rung (request, scan, one filter and the
	// exchange) plus the join and the aggregate over the rows its filter
	// keeps. The part of the measured time this sum misses is reported,
	// not hidden.
	lo, hi := l.q.o.all()
	kept := float64(l.q.o.emp(lo, hi, 3000, colsIDSalary).rows)
	predicted := med("exchange_p2") + kept*(perSmall("match_hash")+perSmall("agg_hash"))/1e6
	m.set("ladder.residual_ratio", (med("par2")-predicted)/med("par2"))
}
