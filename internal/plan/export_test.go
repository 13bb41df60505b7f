package plan

import (
	"fmt"
	"strconv"
	"strings"

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

// NodeAtPath navigates a dotted child-index path from the root — the
// path a RemoteBinder is offered with each cut.
func NodeAtPath(root *Node, path string) (*Node, error) {
	n := root
	if path == "" {
		return n, nil
	}
	for _, part := range strings.Split(path, ".") {
		i, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("plan: bad node path %q", path)
		}
		if n == nil || i < 0 || i >= len(n.Inputs) {
			return nil, fmt.Errorf("plan: node path %q leaves the tree", path)
		}
		n = n.Inputs[i]
	}
	if n == nil {
		return nil, fmt.Errorf("plan: node path %q leaves the tree", path)
	}
	return n, nil
}
