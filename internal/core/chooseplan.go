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
	choice       int       // index of chosen, valid while chosen != nil
	openFailed   bool      // Open ran and failed: next Close is a no-op
	onChoose     func(int) // observability hook, may be nil
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

// Chosen reports the index of the currently running alternative, or -1
// when the operator is not open.
func (c *ChoosePlan) Chosen() int {
	if c.chosen == nil {
		return -1
	}
	return c.choice
}

// Open implements Iterator: evaluates the decision support function and
// opens only the chosen alternative.
func (c *ChoosePlan) Open() error {
	if c.chosen != nil {
		return errState("chooseplan", "already open")
	}
	c.openFailed = false
	i, err := c.decide()
	if err != nil {
		c.openFailed = true
		return fmt.Errorf("core: chooseplan: decision: %w", err)
	}
	if i < 0 || i >= len(c.alternatives) {
		c.openFailed = true
		return errState("chooseplan", fmt.Sprintf("decision %d out of range 0..%d", i, len(c.alternatives)-1))
	}
	if err := c.alternatives[i].Open(); err != nil {
		// The failed alternative owns its own cleanup; remember the
		// failure so the caller's unconditional-Close drain does not
		// mask this error with "close before open".
		c.openFailed = true
		return err
	}
	c.chosen = c.alternatives[i]
	c.choice = i
	if c.onChoose != nil {
		c.onChoose(i)
	}
	return nil
}

// NextBatch implements Iterator by passing batches straight through from
// the chosen alternative.
func (c *ChoosePlan) NextBatch(b *Batch) error {
	if c.chosen == nil {
		return errState("chooseplan", "next before open")
	}
	return c.chosen.NextBatch(b)
}

// Close implements Iterator. A Close directly after a failed Open is a
// no-op success: the failure already unwound the alternative, and the
// standard drain path closes unconditionally — returning a state error
// here would mask the root cause.
func (c *ChoosePlan) Close() error {
	if c.openFailed {
		c.openFailed = false
		return nil
	}
	if c.chosen == nil {
		return errState("chooseplan", "close before open")
	}
	err := c.chosen.Close()
	c.chosen = nil
	return err
}
