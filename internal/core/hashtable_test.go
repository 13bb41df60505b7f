package core

import (
	"bytes"
	"hash/maphash"
	"math"
	"testing"

	"repro/internal/record"
)

// FuzzKeyTable runs a fuzzer-chosen sequence of inserts and finds against
// a Go map and checks every answer: a new key gets the next entry number
// and existed=false, a known key its own number and existed=true, a find
// the number or -1. At the end every key still sits at its first-seen
// number after all growth, and the slot array is a power of two at most
// half full. With constHash every key hashes alike, so all of them share
// one probe chain and only the key bytes tell them apart.
func FuzzKeyTable(f *testing.F) {
	f.Add([]byte("\x00\x01a\x00\x01b\x01\x01a\x01\x01c\x00\x00"), false)
	f.Add([]byte("\x00\x01a\x00\x01b\x00\x02ab\x01\x01b\x00\x01a"), true)
	f.Add(bytes.Repeat([]byte("\x00\x03xyz\x00\x01q"), 20), true)
	f.Fuzz(func(t *testing.T, ops []byte, constHash bool) {
		var tbl keyTable
		ref := map[string]int{}
		var order []string
		hash := func(k []byte) uint64 {
			if constHash {
				return 42
			}
			return maphash.Bytes(keySeed, k)
		}
		for i := 0; i+1 < len(ops); {
			insert, n := ops[i]&1 == 0, int(ops[i+1]%9)
			i += 2
			key := ops[i:min(i+n, len(ops))]
			i += len(key)
			want, known := ref[string(key)]
			if !insert {
				if !known {
					want = -1
				}
				if got := tbl.find(key, hash(key)); got != want {
					t.Fatalf("find(%q) = %d, want %d", key, got, want)
				}
				continue
			}
			if !known {
				want = len(order)
				ref[string(key)] = want
				order = append(order, string(key))
			}
			if got, existed := tbl.insert(key, hash(key)); got != want || existed != known {
				t.Fatalf("insert(%q) = %d, %v, want %d, %v", key, got, existed, want, known)
			}
		}
		if tbl.len() != len(order) {
			t.Fatalf("%d entries, want %d", tbl.len(), len(order))
		}
		for e, k := range order {
			if !bytes.Equal(tbl.key(e), []byte(k)) || tbl.find([]byte(k), hash([]byte(k))) != e {
				t.Fatalf("entry %d holds %q, want %q first seen there", e, tbl.key(e), k)
			}
		}
		if n := len(tbl.slots); n&(n-1) != 0 || 2*tbl.len() > n {
			t.Fatalf("%d entries in %d slots", tbl.len(), n)
		}
	})
}

// TestKeyerAgreesWithCompareKeys holds the keyer to record.CompareKeys:
// for keys of every form, read from two schemas that place the key
// fields at different offsets and behind different var-length fields, two
// records' key bytes are equal exactly when CompareKeys reads 0, and equal
// bytes hash alike on both sides. The one exception is NaN, which
// CompareKeys finds equal to every NaN: a NaN key equals only the same
// bit pattern, as it did when Schema.Hash, which sends different NaNs to
// different buckets, found the build records.
func TestKeyerAgreesWithCompareKeys(t *testing.T) {
	sa := record.MustSchema(
		record.Field{Name: "i", Type: record.TInt}, record.Field{Name: "f", Type: record.TFloat},
		record.Field{Name: "b", Type: record.TBool}, record.Field{Name: "s", Type: record.TString},
		record.Field{Name: "y", Type: record.TBytes}, record.Field{Name: "s2", Type: record.TString},
	)
	sb := record.MustSchema(
		record.Field{Name: "s2", Type: record.TString}, record.Field{Name: "pad", Type: record.TInt},
		record.Field{Name: "y", Type: record.TBytes}, record.Field{Name: "s", Type: record.TString},
		record.Field{Name: "b", Type: record.TBool}, record.Field{Name: "f", Type: record.TFloat},
		record.Field{Name: "i", Type: record.TInt},
	)
	a2b := map[int]int{0: 6, 1: 5, 2: 4, 3: 3, 4: 2, 5: 0}
	ints := []record.Value{record.Int(0), record.Int(1), record.Int(-1), record.Int(3), record.Int(math.MaxInt64), record.Int(math.MinInt64)}
	floats := []record.Value{
		record.Float(0), record.Float(math.Copysign(0, -1)), record.Float(3), record.Float(-1), record.Float(1.5),
		record.Float(math.Float64frombits(3)), // a subnormal whose bits are the integer 3
		record.Float(math.Inf(1)), record.Float(math.Inf(-1)), record.Float(-math.MaxFloat64),
		record.Float(math.NaN()), record.Float(math.Float64frombits(0x7ff8000000000001)),
		record.Float(math.Float64frombits(math.MaxUint64)), // a NaN whose bits are the integer -1
	}
	bools := []record.Value{record.Bool(false), record.Bool(true)}
	strs := []record.Value{record.Str(""), record.Str("a"), record.Str("b"), record.Str("ab"), record.Str("a\x00")}
	byts := []record.Value{record.Bytes(nil), record.Bytes([]byte{0}), record.Bytes([]byte{0, 0}), record.Bytes([]byte{1})}
	cross := func(xs, ys []record.Value) [][]record.Value {
		var out [][]record.Value
		for _, x := range xs {
			for _, y := range ys {
				out = append(out, []record.Value{x, y})
			}
		}
		return out
	}
	single := func(xs []record.Value) [][]record.Value {
		out := make([][]record.Value, len(xs))
		for i, x := range xs {
			out[i] = []record.Value{x}
		}
		return out
	}
	for _, c := range []struct {
		name   string
		key    record.Key // in sa
		tuples [][]record.Value
	}{
		{"int", record.Key{0}, single(ints)},
		{"float", record.Key{1}, single(floats)},
		{"bool", record.Key{2}, single(bools)},
		{"string", record.Key{3}, single(strs)},
		{"bytes", record.Key{4}, single(byts)},
		{"int+string", record.Key{0, 3}, cross(ints[:4], strs)},
		{"string+string", record.Key{3, 5}, cross(strs, strs)},
	} {
		t.Run(c.name, func(t *testing.T) {
			kb := make(record.Key, len(c.key))
			for i, f := range c.key {
				kb[i] = a2b[f]
			}
			encode := func(s *record.Schema, key record.Key, tuple []record.Value) []byte {
				vals, err := s.Decode(s.Zero())
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range key {
					vals[f] = tuple[i]
				}
				return s.MustEncode(vals...)
			}
			ka, kbr := newKeyer(sa, c.key), newKeyer(sb, kb)
			for _, x := range c.tuples {
				for _, y := range c.tuples {
					ra, rb := encode(sa, c.key, x), encode(sb, kb, y)
					xa, ha := ka.of(ra)
					yb, hb := kbr.of(rb)
					got := bytes.Equal(xa, yb)
					want := record.CompareKeys(sa, ra, c.key, sb, rb, kb) == 0
					for i := range x {
						if x[i].Kind == record.TFloat && (math.IsNaN(x[i].F) || math.IsNaN(y[i].F)) {
							want = want && math.Float64bits(x[i].F) == math.Float64bits(y[i].F)
						}
					}
					if got != want {
						t.Errorf("%v vs %v: key bytes equal %v, want %v", x, y, got, want)
					}
					if got && ha != hb {
						t.Errorf("%v vs %v: equal key bytes hash %x and %x", x, y, ha, hb)
					}
				}
			}
		})
	}
}

// TestKeyerSpreadsLowBits holds the int key's hash to spreading keys that
// differ only in their high bits over the low bits a table's mask keeps:
// 1024 multiples of 2^48 must land in many of 1024 slots, not in one
// probe chain. Uniform hashing fills about 647; the bound leaves a wide
// margin for the random seed.
func TestKeyerSpreadsLowBits(t *testing.T) {
	s := record.MustSchema(record.Field{Name: "k", Type: record.TInt})
	k := newKeyer(s, record.Key{0})
	slots := map[uint64]bool{}
	for i := int64(0); i < 1024; i++ {
		_, h := k.of(s.MustEncode(record.Int(i << 48)))
		slots[h&1023] = true
	}
	if len(slots) < 500 {
		t.Fatalf("1024 keys i<<48 fill %d of 1024 slots, want at least 500", len(slots))
	}
}

// TestHashMatchDistinctProbeZeroAlloc holds the per-record probe of the
// set operations to no allocation: a semijoin hit on an int key (the word
// form), and intersect probes whose key is already among the keys passed
// on, on a string key (read in place) and on the whole tuple (rendered
// into the keyer's scratch).
func TestHashMatchDistinctProbeZeroAlloc(t *testing.T) {
	for _, c := range []struct {
		name  string
		op    MatchOp
		left  Iterator
		lk    record.Key
		rk    record.Key
		probe []byte
		pass  bool
	}{
		{"semijoin", MatchSemi, newEmpSource(1), record.Key{1}, record.Key{0},
			empSchema.MustEncode(record.Int(7), record.Int(3), record.Float(1007), record.Str("emp-7")), true},
		{"intersect-string", MatchIntersect, newDeptSource(), record.Key{1}, record.Key{1},
			deptSchema.MustEncode(record.Int(3), record.Str("dept-3")), false},
		{"intersect-tuple", MatchIntersect, newDeptSource(), record.Key{0, 1}, record.Key{0, 1},
			deptSchema.MustEncode(record.Int(3), record.Str("dept-3")), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := newTestEnv(t, 64)
			j, err := NewHashMatch(env.Env, c.op, c.left, newDeptSource(), c.lk, c.rk)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			if _, err := j.match(c.probe); err != nil { // the first probe enters seen
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(1000, func() {
				if pass, err := j.match(c.probe); err != nil || pass != c.pass {
					t.Fatalf("probe passes %v, err=%v; want %v", pass, err, c.pass)
				}
			})
			if n != 0 {
				t.Fatalf("a %s probe allocates %.0f times per record, want 0", c.op, n)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
