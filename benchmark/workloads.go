package main

import (
	"fmt"
	"math/rand"
)

// workload is one traffic mix against one configuration of the served
// system. Every workload is a closed loop.
type workload struct {
	name      string
	clients   int
	serveArgs []string // flags beyond the defaults
	workers   int      // volcano-worker processes behind the server
	// sequence draws the requests one client cycles through.
	sequence func(rng *rand.Rand, q *queries) []*request
}

// seqLen is how many requests a client draws before it cycles. It is
// longer than any window of the heavy workloads and, on point_mix, far
// longer than the plan cache, so cycling does not turn cold keys hot.
const seqLen = 8192

// Every exchange spells out producers= and packet=: a knobless exchange
// fails under default costing (see README, known issues).
const (
	parTail  = `join hash d on dept = dno | agg group dname compute count, sum(id), max(salary) | sort dname`
	exchange = `exchange producers=%d packet=83 flow=on slack=4`
)

var workloads = []workload{
	{
		// Operations cost 0.1 to 1 ms, so the per-query fixed cost (HTTP,
		// parse, plan cache, cost pass, build, admission, trailer) and the
		// B-tree do nearly all the work and the operators none. Keys come
		// from a 16-key hot set 80 % of the time, which keeps every hot plan
		// text inside the 128-entry plan cache: hit ratio about 0.75.
		name: "point_mix", clients: 2,
		sequence: func(rng *rand.Rand, q *queries) []*request {
			const hot = 16
			n := len(q.o.ds.emp)
			hotKeys := rng.Perm(n)[:hot]
			seq := make([]*request, seqLen)
			for i := range seq {
				pick := func(rangeLen int) int {
					if rng.Float64() < 0.8 {
						return hotKeys[rng.Intn(hot)] % rangeLen
					}
					return rng.Intn(rangeLen)
				}
				switch p := rng.Float64(); {
				case p < 0.6:
					seq[i] = q.point(int64(pick(n)))
				case p < 0.8:
					seq[i] = q.idRange(int64(pick(n)))
				default:
					seq[i] = q.deptByNo(pick(numDepts))
				}
			}
			return seq
		},
	},
	{
		// Record decode, the support functions and the NDJSON writer do the
		// work; exchange does none. The pool holds a quarter of the table, so
		// every page is a buffer miss, an eviction and a device read.
		name: "scan_stream", clients: 1, serveArgs: []string{"-frames", "256"},
		sequence: func(rng *rand.Rand, q *queries) []*request {
			return uniform(rng, 16, func() *request { return q.scanStream(4200 + float64(rng.Intn(1600))) })
		},
	},
	{
		// The paper's central claim through the product, at fixed total work
		// and with one client, so intra-query parallelism is all that uses
		// the second core. This form bypasses exchange: an exchange change
		// must leave it still.
		name: "par_serial", clients: 1,
		sequence: func(_ *rand.Rand, q *queries) []*request { return []*request{q.par(0)} },
	},
	{
		name: "par_dop2", clients: 1,
		sequence: func(_ *rand.Rand, q *queries) []*request { return []*request{q.par(2)} },
	},
	{
		name: "par_dop4", clients: 1,
		sequence: func(_ *rand.Rand, q *queries) []*request { return []*request{q.par(4)} },
	},
	{
		// Fragment shipping, VWF1 framing and the coordinator's remote
		// source do the work: about half the records cross the TCP data
		// plane. The same exchange as par_dop4, over a wire.
		name: "dist_agg", clients: 1, workers: 2,
		sequence: func(rng *rand.Rand, q *queries) []*request {
			return uniform(rng, 16, func() *request { return q.distAgg(4600 + float64(rng.Intn(800))) })
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// uniform draws a sequence evenly from k requests made by next.
func uniform(rng *rand.Rand, k int, next func() *request) []*request {
	pool := make([]*request, k)
	for i := range pool {
		pool[i] = next()
	}
	seq := make([]*request, seqLen)
	for i := range seq {
		seq[i] = pool[rng.Intn(k)]
	}
	return seq
}

// queries writes plan texts and pairs each with the oracle's answer. Equal
// texts share one request, so the oracle evaluates each once.
type queries struct {
	o     *oracle
	cache map[string]*request
}

func newQueries(ds *dataset) *queries {
	return &queries{o: &oracle{ds: ds}, cache: make(map[string]*request)}
}

func (q *queries) get(plan string, want func() expect) *request {
	r := q.cache[plan]
	if r == nil {
		r = newRequest(plan, want())
		q.cache[plan] = r
	}
	return r
}

func (q *queries) point(k int64) *request {
	return q.get(fmt.Sprintf("iscan emp emp_id %d %d", k, k),
		func() expect { return q.o.emp(k, k, 0, colsAll) })
}

func (q *queries) idRange(k int64) *request {
	return q.get(fmt.Sprintf("iscan emp emp_id %d %d | project id, salary", k, k+99),
		func() expect { return q.o.emp(k, k+99, 0, colsIDSalary) })
}

func (q *queries) deptByNo(d int) *request {
	return q.get(fmt.Sprintf("scan dept | filter dno = %d", d),
		func() expect { return q.o.dept(d) })
}

func (q *queries) scanStream(x float64) *request {
	lo, hi := q.o.all()
	return q.get(fmt.Sprintf("scan emp | filter salary > %.1f | project id, dept, salary * 1.1 as raised, name", x),
		func() expect { return q.o.emp(lo, hi, x, colsRaised) })
}

// par is the one logical query of the par_* workloads in its serial form
// (dop 0) or behind an exchange with dop producers over dop partitions.
func (q *queries) par(dop int) *request {
	src := "scan emp | filter salary > 3000.0"
	switch dop {
	case 2:
		src = "pscan emp2 2 | filter salary > 3000.0 | " + fmt.Sprintf(exchange, 2)
	case 4:
		src = "pscan emp 4 | filter salary > 3000.0 | " + fmt.Sprintf(exchange, 4)
	}
	return q.get("with d = scan dept\n"+src+" | "+parTail,
		func() expect { return q.o.agg(3000, true) })
}

func (q *queries) distAgg(x float64) *request {
	return q.get(fmt.Sprintf("pscan emp 4 | filter salary > %.1f | exchange producers=4 packet=83 | agg group dept compute count, sum(id), max(salary) | sort dept", x),
		func() expect { return q.o.agg(x, false) })
}
