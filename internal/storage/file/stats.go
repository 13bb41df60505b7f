package file

import "fmt"

// TableStats summarises one file for the benefit of a cost-based
// planner: how many records and pages it holds, and — when the file has
// been ANALYZEd — an estimated distinct-value count per field. Volcano's
// own optimiser worked from exactly this kind of catalog cardinality;
// the numbers here feed plan costing (exchange degree of parallelism,
// hash-vs-merge strategy) and are deliberately approximate.
type TableStats struct {
	Records int
	Pages   int
	// Distinct[i] estimates the number of distinct values of field i.
	// Nil when the table has never been analyzed (or has no schema);
	// entries are exact up to analyzeDistinctCap values and fall back
	// to the record count beyond it.
	Distinct []int64
}

// DistinctOf returns the distinct estimate for field i, or 0 when none
// is known (never analyzed, or i out of range).
func (s TableStats) DistinctOf(i int) int64 {
	if i < 0 || i >= len(s.Distinct) {
		return 0
	}
	return s.Distinct[i]
}

// analyzeDistinctCap bounds the per-field exact distinct tracking during
// Analyze. Beyond the cap a field is reported as fully distinct (one
// value per record) — pessimistic for selectivity, cheap for memory.
const analyzeDistinctCap = 1 << 16

// Analyze scans the named file and records per-field distinct-value
// estimates in the volume's statistics catalog. Records and Pages are
// always maintained by the VTOC; Analyze adds the value distribution a
// costing pass needs for selectivity and join-output estimates. The
// result is persisted by the next Save on durable volumes.
func (v *Volume) Analyze(name string) (TableStats, error) {
	f, err := v.Open(name)
	if err != nil {
		return TableStats{}, err
	}
	schema := f.Schema()
	if schema == nil {
		// No schema, no per-field stats — record/page counts still serve.
		return f.Stats(), nil
	}
	nf := schema.NumFields()
	seen := make([]map[string]struct{}, nf)
	overflow := make([]bool, nf)
	for i := range seen {
		seen[i] = make(map[string]struct{})
	}
	sc := f.NewScan()
	defer sc.Close()
	for {
		rec, ok, err := sc.Next()
		if err != nil {
			return TableStats{}, fmt.Errorf("file: analyze %q: %w", name, err)
		}
		if !ok {
			break
		}
		vals, err := schema.Decode(rec.Data)
		rec.Unfix()
		if err != nil {
			return TableStats{}, fmt.Errorf("file: analyze %q: %w", name, err)
		}
		for i, val := range vals {
			if overflow[i] {
				continue
			}
			seen[i][fmt.Sprintf("%v", val)] = struct{}{}
			if len(seen[i]) > analyzeDistinctCap {
				overflow[i] = true
				seen[i] = nil
			}
		}
	}
	st := f.Stats()
	distinct := make([]int64, nf)
	for i := range distinct {
		if overflow[i] {
			distinct[i] = int64(st.Records)
		} else {
			distinct[i] = int64(len(seen[i]))
		}
	}
	v.vtoc.Lock()
	if v.statsDistinct == nil {
		v.statsDistinct = make(map[string][]int64)
	}
	v.statsDistinct[name] = distinct
	v.vtoc.Unlock()
	st.Distinct = distinct
	return st, nil
}

// Stats returns the statistics recorded for the named file: record and
// page counts straight from the VTOC, plus distinct estimates when the
// file has been analyzed. ok is false when the file does not exist.
func (v *Volume) Stats(name string) (TableStats, bool) {
	v.vtoc.Lock()
	defer v.vtoc.Unlock()
	m, ok := v.files[name]
	if !ok {
		return TableStats{}, false
	}
	return TableStats{Records: m.records, Pages: m.pages, Distinct: v.statsDistinct[name]}, true
}

// Stats returns the file's statistics (see Volume.Stats).
func (f *File) Stats() TableStats {
	st, _ := f.vol.Stats(f.meta.name)
	return st
}
