package core

import (
	"fmt"

	"repro/internal/record"
)

// ChoosePlan implements dynamic query evaluation plans [Graefe & Ward,
// SIGMOD 1989] — the companion Volcano work the paper cites as developed
// alongside the exchange operator. A choose-plan node holds several
// alternative subplans prepared at optimisation time; the decision
// support function runs when the plan is *opened*, so it can consult
// run-time knowledge (actual parameter values, current cardinalities,
// resource availability) that the optimiser could not.
//
// Like every other Volcano operator it is an ordinary iterator: operators
// above and below are unaware that a choice happens at all.
type ChoosePlan struct {
	alternatives []Iterator
	decide       func() (int, error)
	schema       *record.Schema
	chosen       Iterator
	onChoose     func(int) // observability hook, may be nil
	opState
}

// NewChoosePlan builds the operator. All alternatives must produce the
// same schema; decide must return the index of the plan to run.
func NewChoosePlan(alternatives []Iterator, decide func() (int, error)) (*ChoosePlan, error) {
	if len(alternatives) == 0 {
		return nil, errState("chooseplan", "no alternatives")
	}
	if decide == nil {
		return nil, errState("chooseplan", "nil decision function")
	}
	s := alternatives[0].Schema()
	for i, alt := range alternatives[1:] {
		if !alt.Schema().Equal(s) {
			return nil, errState("chooseplan",
				fmt.Sprintf("alternative %d schema %s != %s", i+1, alt.Schema(), s))
		}
	}
	return &ChoosePlan{alternatives: alternatives, decide: decide, schema: s}, nil
}

// Schema implements Iterator.
func (c *ChoosePlan) Schema() *record.Schema { return c.schema }

// OnChoose registers a hook invoked with the chosen alternative's index
// every time Open decides (observability: EXPLAIN ANALYZE and planner
// metrics record which plan actually ran).
func (c *ChoosePlan) OnChoose(fn func(int)) { c.onChoose = fn }

// Open implements Iterator: evaluates the decision support function and
// opens only the chosen alternative.
func (c *ChoosePlan) Open() error { return c.opening("chooseplan", c.openImpl) }

func (c *ChoosePlan) openImpl() error {
	i, err := c.decide()
	if err != nil {
		return fmt.Errorf("core: chooseplan: decision: %w", err)
	}
	if i < 0 || i >= len(c.alternatives) {
		return errState("chooseplan", fmt.Sprintf("decision %d out of range 0..%d", i, len(c.alternatives)-1))
	}
	// A failed alternative owns its own cleanup.
	if err := c.alternatives[i].Open(); err != nil {
		return err
	}
	c.chosen = c.alternatives[i]
	if c.onChoose != nil {
		c.onChoose(i)
	}
	return nil
}

// NextBatch implements Iterator by passing batches straight through from
// the chosen alternative.
func (c *ChoosePlan) NextBatch(b *Batch) error {
	if !c.open {
		return errState("chooseplan", "next before open")
	}
	return c.chosen.NextBatch(b)
}

// Close implements Iterator.
func (c *ChoosePlan) Close() error {
	if ok, err := c.closing("chooseplan"); !ok {
		return err
	}
	err := c.chosen.Close()
	c.chosen = nil
	return err
}
