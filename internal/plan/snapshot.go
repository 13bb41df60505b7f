package plan

import (
	"repro/internal/core"
)

// OpSnapshot is a point-in-time, JSON-friendly view of one plan node's
// runtime counters: the operator's description as EXPLAIN ANALYZE prints
// it, its aggregated OpStats, the port counters when the node is an
// exchange, and the inputs recursively. Because every underlying counter
// is atomic, Snapshot is safe to call while the query is still running —
// it is the live drill-down behind the serving layer's /debug/queries,
// not just a post-mortem export.
type OpSnapshot struct {
	Op       string               `json:"op"`
	Stats    core.OpStatsSnapshot `json:"stats"`
	EstRows  int64                `json:"est_rows,omitempty"`
	Chosen   string               `json:"chosen,omitempty"`
	Exchange *ExchangeSnapshot    `json:"exchange,omitempty"`
	Inputs   []OpSnapshot         `json:"inputs,omitempty"`
}

// ExchangeSnapshot is the JSON shape of an exchange node's port counters.
type ExchangeSnapshot struct {
	Packets         int64 `json:"packets"`
	Records         int64 `json:"records"`
	Forks           int64 `json:"forks"`
	ProducerStall   int64 `json:"producer_stall_ns"`
	ConsumerWait    int64 `json:"consumer_wait_ns"`
	PoolHits        int64 `json:"pool_hits"`
	PoolMisses      int64 `json:"pool_misses"`
	BatchPoolHits   int64 `json:"batch_pool_hits,omitempty"`
	BatchPoolMisses int64 `json:"batch_pool_misses,omitempty"`
}

// Snapshot walks the plan tree and snapshots every node's counters. The
// result is self-contained plain data: safe to marshal, store, or diff
// against a later snapshot of the same run (counters only grow).
func (a *Analysis) Snapshot() OpSnapshot {
	return a.snapshotNode(a.root)
}

func (a *Analysis) snapshotNode(n *Node) OpSnapshot {
	s := OpSnapshot{Op: describe(n)}
	if st := a.stats[n]; st != nil {
		s.Stats = st.Snapshot()
	}
	if e, ok := a.Estimate(n); ok {
		s.EstRows = e
	}
	if n.Kind == KindChoosePlan {
		s.Chosen = chosenLabel(n, a.Choice(n))
	}
	if n.Kind == KindExchange {
		x := a.ExchangeStats(n)
		s.Exchange = &ExchangeSnapshot{
			Packets:         x.Packets,
			Records:         x.Records,
			Forks:           x.Forks,
			ProducerStall:   int64(x.ProducerStall),
			ConsumerWait:    int64(x.ConsumerWait),
			PoolHits:        x.PoolHits,
			PoolMisses:      x.PoolMisses,
			BatchPoolHits:   x.BatchPoolHits,
			BatchPoolMisses: x.BatchPoolMisses,
		}
	}
	if len(n.Inputs) > 0 {
		s.Inputs = make([]OpSnapshot, 0, len(n.Inputs))
		for _, in := range n.Inputs {
			s.Inputs = append(s.Inputs, a.snapshotNode(in))
		}
	}
	return s
}
