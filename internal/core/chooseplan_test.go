package core

import (
	"fmt"
	"testing"

	"repro/internal/record"
	"repro/internal/storage/btree"
)

func TestChoosePlanPicksAlternative(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeEmp(t, "emp", 200, 4)

	// Build an index on id so a plan choice is meaningful.
	tree, err := btree.Create(env.Pool, env.base.Device())
	if err != nil {
		t.Fatal(err)
	}
	sc := f.NewScan(false)
	for {
		r, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		key, _ := btree.EncodeRecordKey(empSchema, r.Data, record.Key{0})
		if err := tree.Insert(key, r.RID); err != nil {
			t.Fatal(err)
		}
		r.Unfix()
	}
	sc.Close()

	// A parameterised query: id in [lo, lo+9]. The optimiser prepared two
	// plans — an index range scan and a full scan with a filter — and a
	// choose-plan decides per execution based on the run-time parameter.
	runWithParam := func(lo int64, selectivityThreshold int64) (rows int, choseIndex bool) {
		idx, err := NewIndexScan(tree, f, nil,
			btree.EncodeKey(record.Int(lo)), btree.EncodeKey(record.Int(lo+9)), true, true)
		if err != nil {
			t.Fatal(err)
		}
		full, err := NewFilterExpr(env.Env, scanOf(t, f),
			fmt.Sprintf("id >= %d AND id <= %d", lo, lo+9), 0)
		if err != nil {
			t.Fatal(err)
		}
		decided := -1
		cp, err := NewChoosePlan([]Iterator{idx, full}, func() (int, error) {
			// The decision support function consults the run-time value.
			if lo < selectivityThreshold {
				decided = 0
			} else {
				decided = 1
			}
			return decided, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Collect(cp, 0)
		if err != nil {
			t.Fatal(err)
		}
		return len(got), decided == 0
	}

	n, choseIndex := runWithParam(50, 100)
	if n != 10 || !choseIndex {
		t.Fatalf("param 50: rows=%d index=%v", n, choseIndex)
	}
	n, choseIndex = runWithParam(150, 100)
	if n != 10 || choseIndex {
		t.Fatalf("param 150: rows=%d index=%v", n, choseIndex)
	}
	env.checkNoPinLeak(t)
}

func TestChoosePlanValidation(t *testing.T) {
	env := newTestEnv(t, 64)
	a := env.makeInts(t, "a", 1)
	b := env.makeEmp(t, "b", 1, 1)
	if _, err := NewChoosePlan(nil, func() (int, error) { return 0, nil }); err == nil {
		t.Fatal("no alternatives accepted")
	}
	if _, err := NewChoosePlan([]Iterator{scanOf(t, a)}, nil); err == nil {
		t.Fatal("nil decision accepted")
	}
	if _, err := NewChoosePlan([]Iterator{scanOf(t, a), scanOf(t, b)},
		func() (int, error) { return 0, nil }); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	cp, err := NewChoosePlan([]Iterator{scanOf(t, a)}, func() (int, error) { return 7, nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Open(); err == nil {
		t.Fatal("out-of-range decision accepted")
	}
	cp2, _ := NewChoosePlan([]Iterator{scanOf(t, a)}, func() (int, error) { return 0, fmt.Errorf("boom") })
	if err := cp2.Open(); err == nil {
		t.Fatal("decision error swallowed")
	}
	// Protocol errors.
	cp3, _ := NewChoosePlan([]Iterator{scanOf(t, a)}, func() (int, error) { return 0, nil })
	if err := cp3.NextBatch(NewBatch(1)); err == nil {
		t.Fatal("next before open accepted")
	}
	if err := cp3.Close(); err == nil {
		t.Fatal("close before open accepted")
	}
}

// TestChoosePlanBatchParity drives both alternatives of a choose-plan —
// a file scan and a filter — at several batch sizes and checks every
// size passes the chosen alternative's whole stream through, as size 1
// does.
func TestChoosePlanBatchParity(t *testing.T) {
	env := newTestEnv(t, 256)
	f := env.makeInts(t, "t", shuffled(500, 7)...)
	mkChoose := func(alt int) Iterator {
		scan := scanOf(t, f)
		filter, err := NewFilterExpr(env.Env, scanOf(t, f), "v >= 0", 0)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := NewChoosePlan([]Iterator{scan, filter}, func() (int, error) { return alt, nil })
		if err != nil {
			t.Fatal(err)
		}
		return cp
	}
	for alt := 0; alt < 2; alt++ {
		for _, size := range []int{1, 7, 83} {
			n, err := Drain(mkChoose(alt), size)
			if err != nil {
				t.Fatalf("alt %d size %d: %v", alt, size, err)
			}
			if n != 500 {
				t.Fatalf("alt %d size %d: %d rows, want 500", alt, size, n)
			}
		}
	}
	env.checkNoPinLeak(t)
}

func TestChoosePlanUnderExchange(t *testing.T) {
	// A choose-plan inside each producer of an exchange: every producer
	// makes its own run-time decision — plan choice and parallelism
	// compose because both are plain iterators.
	env := newTestEnv(t, 512)
	f := env.makeInts(t, "t", shuffled(600, 9)...)
	x, err := NewExchange(ExchangeConfig{
		Schema:    intSchema,
		Producers: 3,
		Consumers: 1,
		NewProducer: func(g int) (Iterator, error) {
			mk := func(pred string) (Iterator, error) {
				return NewFilterExpr(env.Env, scanOf(t, f), pred, 0)
			}
			a, err := mk(fmt.Sprintf("v %% 3 = %d", g))
			if err != nil {
				return nil, err
			}
			b, err := mk(fmt.Sprintf("v - (v / 3) * 3 = %d", g)) // same predicate, different plan
			if err != nil {
				return nil, err
			}
			return NewChoosePlan([]Iterator{a, b}, func() (int, error) { return g % 2, nil })
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Drain(x.Consumer(0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Fatalf("rows = %d, want 600", n)
	}
	env.checkNoPinLeak(t)
}
