package main

import (
	"hash/maphash"
	"strconv"
)

// hashSeed keys the per-line hash. Expected and observed checksums are
// computed in the same process, so a per-process seed suffices.
var hashSeed = maphash.MakeSeed()

// expect is what a correct response holds: its row count and the sum of
// the hashes of its NDJSON lines, which does not depend on row order.
type expect struct {
	rows int64
	sum  uint64
}

func (e *expect) add(line []byte) {
	e.rows++
	e.sum += maphash.Bytes(hashSeed, line)
}

// oracle is the reference evaluator: it computes from the generated rows,
// with no storage and no operators, the result every benchmark query must
// return, rendered as volcano-serve renders NDJSON (integers in decimal,
// floats in shortest 'g' form, strings quoted).
type oracle struct {
	ds *dataset
}

func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// empCols selects the projection of an emp query.
type empCols int

const (
	colsAll      empCols = iota // id, dept, salary, name
	colsIDSalary                // project id, salary
	colsRaised                  // project id, dept, salary * 1.1 as raised, name
)

// emp evaluates a selection over emp: ids in [lo, hi], salary > minSalary.
func (o *oracle) emp(lo, hi int64, minSalary float64, cols empCols) expect {
	var e expect
	var b []byte
	if lo < 0 {
		lo = 0
	}
	for i := lo; i <= hi && i < int64(len(o.ds.emp)); i++ {
		r := &o.ds.emp[i]
		if !(r.salary > minSalary) {
			continue
		}
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, r.id, 10)
		if cols != colsIDSalary {
			b = append(b, `,"dept":`...)
			b = strconv.AppendInt(b, r.dept, 10)
		}
		if cols == colsRaised {
			b = append(b, `,"raised":`...)
			b = appendFloat(b, r.salary*1.1)
		} else {
			b = append(b, `,"salary":`...)
			b = appendFloat(b, r.salary)
		}
		if cols != colsIDSalary {
			b = append(b, `,"name":"`...)
			b = append(b, r.name...)
			b = append(b, '"')
		}
		b = append(b, '}')
		e.add(b)
	}
	return e
}

// all is the id range of the whole table.
func (o *oracle) all() (int64, int64) { return 0, int64(len(o.ds.emp)) - 1 }

// dept evaluates `scan dept | filter dno = d`.
func (o *oracle) dept(d int) expect {
	var e expect
	if d >= 0 && d < len(o.ds.dname) {
		e.add([]byte(`{"dno":` + strconv.Itoa(d) + `,"dname":"` + o.ds.dname[d] + `"}`))
	}
	return e
}

// agg evaluates `filter salary > minSalary | [join dept] | agg group G
// compute count, sum(id), max(salary)`: G is dname when joined, else dept.
func (o *oracle) agg(minSalary float64, joined bool) expect {
	type group struct {
		count, sumID int64
		maxSalary    float64
	}
	groups := make(map[int64]*group)
	for i := range o.ds.emp {
		r := &o.ds.emp[i]
		if !(r.salary > minSalary) {
			continue
		}
		g := groups[r.dept]
		if g == nil {
			g = &group{maxSalary: r.salary}
			groups[r.dept] = g
		}
		g.count++
		g.sumID += r.id
		if r.salary > g.maxSalary {
			g.maxSalary = r.salary
		}
	}
	var e expect
	var b []byte
	for k, g := range groups {
		if joined {
			b = append(b[:0], `{"dname":"`...)
			b = append(b, o.ds.dname[k]...)
			b = append(b, '"')
		} else {
			b = append(b[:0], `{"dept":`...)
			b = strconv.AppendInt(b, k, 10)
		}
		b = append(b, `,"count":`...)
		b = strconv.AppendInt(b, g.count, 10)
		b = append(b, `,"sum_id":`...)
		b = strconv.AppendInt(b, g.sumID, 10)
		b = append(b, `,"max_salary":`...)
		b = appendFloat(b, g.maxSalary)
		b = append(b, '}')
		e.add(b)
	}
	return e
}
