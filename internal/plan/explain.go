package plan

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/record"
)

// Explain renders the plan tree as an indented outline.
func Explain(n *Node) string {
	var sb strings.Builder
	explain(&sb, n, 0)
	return sb.String()
}

func explain(sb *strings.Builder, n *Node, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	sb.WriteString(describe(n))
	sb.WriteByte('\n')
	for _, in := range n.Inputs {
		explain(sb, in, depth+1)
	}
}

func describe(n *Node) string {
	switch n.Kind {
	case KindScan:
		return fmt.Sprintf("scan %s", n.Table)
	case KindPartitionedScan:
		return fmt.Sprintf("pscan %s [%d partitions]", n.Table, n.Partitions)
	case KindIndexScan:
		bounds := ""
		if n.LoKey != nil {
			bounds += fmt.Sprintf(" from %d", *n.LoKey)
		}
		if n.HiKey != nil {
			bounds += fmt.Sprintf(" to %d", *n.HiKey)
		}
		return fmt.Sprintf("iscan %s via %s%s", n.Table, n.IndexName, bounds)
	case KindFilter:
		return fmt.Sprintf("filter (%s) [%s]", n.Pred, n.Mode)
	case KindProject:
		return fmt.Sprintf("project %s", strings.Join(n.Exprs, ", "))
	case KindSort:
		if n.SortTerms != nil {
			return fmt.Sprintf("sort %s", termsString(n.SortTerms, true))
		}
		return fmt.Sprintf("sort %s", sortSpecString(n.SortBy))
	case KindDistinct:
		return fmt.Sprintf("distinct [%s]", n.Algo)
	case KindAggregate:
		aggs := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			switch {
			case n.Combine, a.Func == core.AggCount:
				// A combiner's fields are positional over the partials' output.
				aggs[i] = a.Func.String()
			case n.AggTerms != nil:
				aggs[i] = fmt.Sprintf("%s(%s)", a.Func, n.AggTerms[i].ref())
			default:
				aggs[i] = fmt.Sprintf("%s($%d)", a.Func, a.Field)
			}
		}
		desc := "aggregate combine"
		if !n.Combine {
			// Parsed plans carry names (GroupTerms, AggTerms) and resolve the
			// indexes only at build time; plans built in code carry indexes.
			var group []string
			for _, t := range n.GroupTerms {
				group = append(group, t.ref())
			}
			if n.GroupTerms == nil {
				for _, f := range n.GroupBy {
					group = append(group, fmt.Sprintf("$%d", f))
				}
			}
			desc = "aggregate group=" + strings.Join(group, ",")
		}
		if len(aggs) > 0 {
			desc += " " + strings.Join(aggs, ",")
		}
		return fmt.Sprintf("%s [%s]", desc, n.Algo)
	case KindMatch:
		if n.AllFieldKeys {
			return fmt.Sprintf("%s [%s]", n.MatchOp, n.Algo)
		}
		if n.LeftTerms != nil {
			return fmt.Sprintf("%s on %s=%s [%s]", n.MatchOp,
				termsString(n.LeftTerms, false), termsString(n.RightTerms, false), n.Algo)
		}
		return fmt.Sprintf("%s on %v=%v [%s]", n.MatchOp, n.LeftKey, n.RightKey, n.Algo)
	case KindNestedLoops:
		if n.Pred == "" {
			return "cartesian product"
		}
		return fmt.Sprintf("nested loops (%s)", n.Pred)
	case KindDivision:
		return fmt.Sprintf("division quot=%v div=%v [%s]", n.QuotKey, n.DivKey, n.Algo)
	case KindExchange:
		o := n.X
		var opts []string
		opts = append(opts, fmt.Sprintf("producers=%d consumers=%d", o.Producers, max1(o.Consumers)))
		if o.PacketSize != 0 {
			opts = append(opts, fmt.Sprintf("packet=%d", o.PacketSize))
		}
		if o.FlowControl {
			opts = append(opts, fmt.Sprintf("flow=on slack=%d", o.Slack))
		}
		if o.Broadcast {
			opts = append(opts, "broadcast")
		}
		if o.Inline {
			opts = append(opts, "inline")
		}
		if o.KeepStreams {
			spec := sortSpecString(o.MergeSort)
			if n.MergeTerms != nil {
				spec = termsString(n.MergeTerms, true)
			}
			opts = append(opts, fmt.Sprintf("merge %s", spec))
		}
		if len(o.HashKeys) > 0 {
			opts = append(opts, fmt.Sprintf("partition=hash%v", o.HashKeys))
		}
		if o.UseRange {
			opts = append(opts, fmt.Sprintf("partition=range($%d)", o.RangeCol))
		}
		return "exchange " + strings.Join(opts, " ")
	case KindChoosePlan:
		if n.Choose == nil {
			return "chooseplan"
		}
		labels := n.Choose.Labels
		if len(labels) == 0 {
			labels = make([]string, len(n.Inputs))
			for i := range labels {
				labels[i] = fmt.Sprintf("alt%d", i)
			}
		}
		return fmt.Sprintf("chooseplan %s table=%s threshold=%d",
			strings.Join(labels, "|"), n.Choose.Table, n.Choose.Threshold)
	default:
		return n.Kind.String()
	}
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// ref renders the field a term names: its name, or $index.
func (t Term) ref() string {
	if t.ByName {
		return t.Name
	}
	return fmt.Sprintf("$%d", t.Index)
}

// termsString renders unresolved field terms; withDir appends asc/desc.
func termsString(terms []Term, withDir bool) string {
	parts := make([]string, len(terms))
	for i, t := range terms {
		ref := t.ref()
		if withDir {
			dir := " asc"
			if t.Desc {
				dir = " desc"
			}
			ref += dir
		}
		parts[i] = ref
	}
	return strings.Join(parts, ", ")
}

func sortSpecString(spec []record.SortSpec) string {
	parts := make([]string, len(spec))
	for i, s := range spec {
		dir := "asc"
		if s.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("$%d %s", s.Field, dir)
	}
	return strings.Join(parts, ", ")
}
