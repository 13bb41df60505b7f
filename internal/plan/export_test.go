package plan

import (
	"repro/internal/core"
	"repro/internal/record"
)

// Run builds the plan at the given batch size (0 = core.DefaultBatchSize)
// and executes it, draining the root at the same size, returning decoded
// rows.
func Run(env *core.Env, cat Catalog, n *Node, size int) ([][]record.Value, error) {
	it, _, err := BuildWith(env, cat, n, BuildOptions{BatchSize: size})
	if err != nil {
		return nil, err
	}
	return core.Collect(it, size)
}
