package plan

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
)

// The plan language: one pipeline of stages separated by '|', optionally
// preceded by named sub-plans:
//
//	with depts = scan dept | filter budget > 100
//	scan emp
//	| filter salary > 1200 AND name LIKE 'a%'
//	| join hash depts on dept = id
//	| project name, salary * 1.1 as raised
//	| sort raised desc
//
// Stages:
//
//	scan TABLE
//	pscan TABLE N                  (partitioned scan; valid under exchange)
//	iscan TABLE INDEX [LO [HI]]    (B+-tree index scan, int key bounds)
//	filter [interpreted|compiled] EXPR
//	project [interpreted|compiled] EXPR [as NAME] {, ...}
//	sort FIELD [asc|desc] {, ...}
//	distinct [hash|sort]
//	agg [hash|sort] group FIELDS [compute AGG {, AGG}]
//	    AGG := count | sum(F) | min(F) | max(F) | avg(F)
//	join [hash|merge] NAME on L = R {, L = R}
//	join loops NAME on EXPR
//	semijoin|antijoin|leftouter|rightouter|fullouter [hash|merge] NAME on L = R {,...}
//	union|intersect|difference|antidifference [hash|merge] NAME
//	divide [hash|sort] NAME quot FIELDS div FIELDS on FIELDS
//	exchange [producers=N] [packet=K] [flow=on|off] [slack=S] [fork=central|tree]
//	         [forkcost=DUR] [partition=hash(FIELDS)|rr] [broadcast] [inline]
//	         [merge=FIELD [asc|desc]{,...}]
//
// FIELDS are field names or $indexes. Comments start with '#'.

// MaxDOP bounds plan-text degree-of-parallelism knobs (exchange producer
// counts and pscan partition counts). Values are validated at parse time
// with a positioned ParseError, so an absurd request ("producers=10e6")
// is rejected before the server's goroutine governor — or a build — ever
// sees it. The bound is far above any useful fan-out on one machine.
const MaxDOP = 1024

// Term is an unresolved field reference (by name or index) with an
// optional sort direction.
type Term struct {
	Name   string
	Index  int
	ByName bool
	Desc   bool
}

// resolveKey turns terms into field indices against a schema.
func resolveKey(s *record.Schema, terms []Term) (record.Key, error) {
	key := make(record.Key, len(terms))
	for i, t := range terms {
		idx := t.Index
		if t.ByName {
			idx = s.Index(t.Name)
			if idx < 0 {
				return nil, fmt.Errorf("plan: unknown field %q in %s", t.Name, s)
			}
		}
		if idx < 0 || idx >= s.NumFields() {
			return nil, fmt.Errorf("plan: field index %d out of range for %s", idx, s)
		}
		key[i] = idx
	}
	return key, nil
}

// resolveSort turns terms into sort specs against a schema.
func resolveSort(s *record.Schema, terms []Term) ([]record.SortSpec, error) {
	key, err := resolveKey(s, terms)
	if err != nil {
		return nil, err
	}
	spec := make([]record.SortSpec, len(terms))
	for i := range terms {
		spec[i] = record.SortSpec{Field: key[i], Desc: terms[i].Desc}
	}
	return spec, nil
}

// parseTerm parses "name", "$3", optionally followed by asc/desc.
func parseTerm(s string) (Term, error) {
	fields := strings.Fields(strings.TrimSpace(s))
	if len(fields) == 0 || len(fields) > 2 {
		return Term{}, fmt.Errorf("plan: bad field term %q", s)
	}
	t := Term{}
	ref := fields[0]
	if strings.HasPrefix(ref, "$") {
		i, err := strconv.Atoi(ref[1:])
		if err != nil {
			return Term{}, fmt.Errorf("plan: bad field index %q", ref)
		}
		t.Index = i
	} else {
		t.Name, t.ByName = ref, true
	}
	if len(fields) == 2 {
		switch strings.ToLower(fields[1]) {
		case "asc":
		case "desc":
			t.Desc = true
		default:
			return Term{}, fmt.Errorf("plan: bad sort direction %q", fields[1])
		}
	}
	return t, nil
}

func parseTerms(s string) ([]Term, error) {
	var out []Term
	for _, part := range strings.Split(s, ",") {
		t, err := parseTerm(part)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ParseError locates a parse failure in the source script so callers —
// in particular the query server's 400 responses — can point at the
// offending line and stage instead of echoing a bare message.
type ParseError struct {
	Line  int    // 1-based source line the failing stage starts on (0 = whole script)
	Stage int    // 1-based stage index within its statement (0 = statement level)
	Op    string // stage keyword, "" when the stage never identified itself
	Err   error  // underlying cause; its "plan: " prefix is stripped in Error
}

// Error renders "plan: line L, stage S: cause".
func (e *ParseError) Error() string {
	msg := strings.TrimPrefix(e.Err.Error(), "plan: ")
	switch {
	case e.Line == 0:
		return "plan: " + msg
	case e.Stage == 0:
		return fmt.Sprintf("plan: line %d: %s", e.Line, msg)
	default:
		return fmt.Sprintf("plan: line %d, stage %d: %s", e.Line, e.Stage, msg)
	}
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// srcStage is one pipeline stage with the source line it starts on.
type srcStage struct {
	text string
	line int
}

// srcStmt is one statement — a with-binding or the main pipeline — as a
// sequence of stages.
type srcStmt struct {
	stages []srcStage
	line   int
}

// splitSource performs the lexical phase shared by Parse and Normalize:
// strip '#' comments, trim whitespace, drop blank lines, attach
// continuation lines starting with '|' to the open statement, and split
// every statement into its '|'-separated stages, each tagged with the
// 1-based line it starts on. Empty stage texts are preserved so the
// parser can report them.
func splitSource(src string) []srcStmt {
	var stmts []srcStmt
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		cont := strings.HasPrefix(line, "|") && len(stmts) > 0
		if cont {
			line = line[1:]
		}
		var stages []srcStage
		for _, seg := range strings.Split(line, "|") {
			stages = append(stages, srcStage{text: strings.TrimSpace(seg), line: ln + 1})
		}
		if cont {
			last := &stmts[len(stmts)-1]
			last.stages = append(last.stages, stages...)
		} else {
			stmts = append(stmts, srcStmt{stages: stages, line: ln + 1})
		}
	}
	return stmts
}

// Normalize returns the canonical form of a plan script: comments and
// blank lines removed, continuation lines joined, stages separated by
// " | " and statements by newlines. Two sources with the same normal form
// parse identically (Parse operates on exactly the stage texts Normalize
// emits), which makes the normal form a sound plan-cache key; whitespace
// inside a stage — including inside string literals — is untouched.
func Normalize(src string) string {
	var sb strings.Builder
	for i, st := range splitSource(src) {
		if i > 0 {
			sb.WriteByte('\n')
		}
		for j, sg := range st.stages {
			if j > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(sg.text)
		}
	}
	return sb.String()
}

// Parse parses a plan-language script into a plan tree. Failures are
// reported as *ParseError carrying the offending line and stage.
func Parse(src string) (*Node, error) {
	named := map[string]*Node{}
	stmts := splitSource(src)
	if len(stmts) == 0 {
		return nil, &ParseError{Err: fmt.Errorf("plan: empty script")}
	}
	var main *Node
	for _, stmt := range stmts {
		first := stmt.stages[0]
		if strings.HasPrefix(first.text, "with ") {
			rest := strings.TrimPrefix(first.text, "with ")
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return nil, &ParseError{Line: stmt.line, Err: fmt.Errorf("plan: with-binding needs '=': %q", first.text)}
			}
			name := strings.TrimSpace(rest[:eq])
			stages := append([]srcStage{{text: strings.TrimSpace(rest[eq+1:]), line: first.line}}, stmt.stages[1:]...)
			node, err := parsePipeline(stages, named)
			if err != nil {
				return nil, err
			}
			named[name] = node
			continue
		}
		if main != nil {
			return nil, &ParseError{Line: stmt.line, Err: fmt.Errorf("plan: more than one main pipeline")}
		}
		node, err := parsePipeline(stmt.stages, named)
		if err != nil {
			return nil, err
		}
		main = node
	}
	if main == nil {
		return nil, &ParseError{Err: fmt.Errorf("plan: no main pipeline (only with-bindings)")}
	}
	return main, nil
}

func parsePipeline(stages []srcStage, named map[string]*Node) (*Node, error) {
	var cur *Node
	for i, st := range stages {
		if st.text == "" {
			return nil, &ParseError{Line: st.line, Stage: i + 1, Err: fmt.Errorf("plan: empty stage")}
		}
		node, err := parseStage(st.text, cur, named)
		if err != nil {
			head, _ := splitHead(st.text)
			return nil, &ParseError{Line: st.line, Stage: i + 1, Op: strings.ToLower(head), Err: err}
		}
		node.Line, node.Stage = st.line, i+1
		cur = node
	}
	return cur, nil
}

// splitHead splits "word rest..." -> ("word", "rest...").
func splitHead(s string) (string, string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimSpace(s[i:])
}

func parseStage(st string, input *Node, named map[string]*Node) (*Node, error) {
	head, rest := splitHead(st)
	head = strings.ToLower(head)
	needInput := func() error {
		if input == nil {
			return fmt.Errorf("plan: %s needs an input stage", head)
		}
		return nil
	}
	switch head {
	case "scan":
		if input != nil {
			return nil, fmt.Errorf("plan: scan must be the first stage")
		}
		if rest == "" {
			return nil, fmt.Errorf("plan: scan needs a table name")
		}
		return &Node{Kind: KindScan, Table: rest}, nil

	case "pscan":
		if input != nil {
			return nil, fmt.Errorf("plan: pscan must be the first stage")
		}
		name, nstr := splitHead(rest)
		n, err := strconv.Atoi(nstr)
		if err != nil || name == "" || n < 1 {
			return nil, fmt.Errorf("plan: usage: pscan TABLE N")
		}
		if n > MaxDOP {
			return nil, fmt.Errorf("plan: pscan partition count %d exceeds max %d", n, MaxDOP)
		}
		return &Node{Kind: KindPartitionedScan, Table: name, Partitions: n}, nil

	case "iscan":
		// iscan TABLE INDEX [LO [HI]] — integer key bounds, inclusive.
		if input != nil {
			return nil, fmt.Errorf("plan: iscan must be the first stage")
		}
		parts := strings.Fields(rest)
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("plan: usage: iscan TABLE INDEX [LO [HI]]")
		}
		node := &Node{Kind: KindIndexScan, Table: parts[0], IndexName: parts[1]}
		if len(parts) >= 3 {
			lo, err := strconv.ParseInt(parts[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("plan: bad iscan lower bound %q", parts[2])
			}
			node.LoKey = &lo
		}
		if len(parts) == 4 {
			hi, err := strconv.ParseInt(parts[3], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("plan: bad iscan upper bound %q", parts[3])
			}
			node.HiKey = &hi
		}
		return node, nil

	case "filter":
		if err := needInput(); err != nil {
			return nil, err
		}
		mode, rest := parseMode(rest)
		if rest == "" {
			return nil, fmt.Errorf("plan: filter needs a predicate")
		}
		return &Node{Kind: KindFilter, Pred: rest, Mode: mode, Inputs: []*Node{input}}, nil

	case "project":
		if err := needInput(); err != nil {
			return nil, err
		}
		mode, rest := parseMode(rest)
		var exprs, names []string
		for _, item := range strings.Split(rest, ",") {
			item = strings.TrimSpace(item)
			name := ""
			if i := strings.LastIndex(strings.ToLower(item), " as "); i >= 0 {
				name = strings.TrimSpace(item[i+4:])
				item = strings.TrimSpace(item[:i])
			}
			if item == "" {
				return nil, fmt.Errorf("plan: empty projection item")
			}
			if name == "" {
				if e, err := expr.Parse(item); err == nil {
					if id, ok := e.(*expr.Ident); ok {
						name = id.Name
					}
				}
			}
			if name == "" {
				name = fmt.Sprintf("c%d", len(exprs))
			}
			exprs = append(exprs, item)
			names = append(names, name)
		}
		return &Node{Kind: KindProject, Exprs: exprs, Names: names, Mode: mode, Inputs: []*Node{input}}, nil

	case "sort":
		if err := needInput(); err != nil {
			return nil, err
		}
		terms, err := parseTerms(rest)
		if err != nil {
			return nil, err
		}
		return &Node{Kind: KindSort, SortTerms: terms, Inputs: []*Node{input}}, nil

	case "distinct":
		if err := needInput(); err != nil {
			return nil, err
		}
		algo, err := parseAlgo(rest, AlgoHash)
		if err != nil {
			return nil, err
		}
		return &Node{Kind: KindDistinct, Algo: algo, AlgoSet: strings.TrimSpace(rest) != "", Inputs: []*Node{input}}, nil

	case "agg":
		if err := needInput(); err != nil {
			return nil, err
		}
		return parseAgg(rest, input)

	case "join", "semijoin", "antijoin", "leftouter", "rightouter", "fullouter":
		if err := needInput(); err != nil {
			return nil, err
		}
		return parseJoin(head, rest, input, named)

	case "union", "intersect", "difference", "antidifference":
		if err := needInput(); err != nil {
			return nil, err
		}
		return parseSetOp(head, rest, input, named)

	case "divide":
		if err := needInput(); err != nil {
			return nil, err
		}
		return parseDivide(rest, input, named)

	case "exchange":
		if err := needInput(); err != nil {
			return nil, err
		}
		return parseExchange(rest, input)

	default:
		return nil, fmt.Errorf("plan: unknown stage %q", head)
	}
}

// parseMode strips an optional leading "interpreted"/"compiled" keyword
// selecting the support-function realisation (paper, §3).
func parseMode(rest string) (expr.Mode, string) {
	head, tail := splitHead(rest)
	switch strings.ToLower(head) {
	case "interpreted":
		return expr.Interpreted, tail
	case "compiled":
		return expr.Compiled, tail
	}
	return expr.Compiled, rest
}

func parseAlgo(s string, dflt Algo) (Algo, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "":
		return dflt, nil
	case "hash":
		return AlgoHash, nil
	case "sort", "merge":
		return AlgoSort, nil
	case "loops":
		return AlgoLoops, nil
	default:
		return 0, fmt.Errorf("plan: unknown algorithm %q", s)
	}
}

func parseAgg(rest string, input *Node) (*Node, error) {
	algo, algoSet := AlgoHash, false
	if head, r := splitHead(rest); head == "hash" || head == "sort" {
		algo, _ = parseAlgo(head, AlgoHash)
		algoSet = true
		rest = r
	}
	low := strings.ToLower(rest)
	usage := fmt.Errorf("plan: usage: agg [hash|sort] group FIELDS [compute AGGS]")
	if !strings.HasPrefix(low, "group ") {
		return nil, usage
	}
	fields, items := rest[len("group "):], ""
	// ci must leave room for the group field list: "group compute x" has
	// the two keywords overlapping and no fields between them. Without a
	// compute clause the aggregate only groups.
	switch ci := strings.Index(low, " compute "); {
	case ci >= len("group ") && strings.TrimSpace(rest[ci+len(" compute "):]) != "":
		fields, items = rest[len("group "):ci], rest[ci+len(" compute "):]
	case ci >= 0 || strings.EqualFold(strings.TrimSpace(fields), "compute") || strings.HasSuffix(low, " compute"):
		return nil, usage
	}
	groupTerms, err := parseTerms(fields)
	if err != nil {
		return nil, err
	}
	var aggs []core.AggSpec
	var aggTerms []Term
	var list []string
	if items != "" {
		list = strings.Split(items, ",")
	}
	for _, item := range list {
		item = strings.TrimSpace(item)
		if strings.EqualFold(item, "count") {
			aggs = append(aggs, core.AggSpec{Func: core.AggCount})
			aggTerms = append(aggTerms, Term{Index: -1})
			continue
		}
		open := strings.Index(item, "(")
		closeP := strings.LastIndex(item, ")")
		if open < 0 || closeP < open {
			return nil, fmt.Errorf("plan: bad aggregate %q", item)
		}
		var fn core.AggFunc
		switch strings.ToLower(item[:open]) {
		case "sum":
			fn = core.AggSum
		case "min":
			fn = core.AggMin
		case "max":
			fn = core.AggMax
		case "avg":
			fn = core.AggAvg
		case "count":
			fn = core.AggCount
		default:
			return nil, fmt.Errorf("plan: unknown aggregate %q", item[:open])
		}
		t, err := parseTerm(item[open+1 : closeP])
		if err != nil {
			return nil, err
		}
		aggs = append(aggs, core.AggSpec{Func: fn})
		aggTerms = append(aggTerms, t)
	}
	return &Node{
		Kind: KindAggregate, Algo: algo, AlgoSet: algoSet,
		GroupTerms: groupTerms, Aggs: aggs, AggTerms: aggTerms,
		Inputs: []*Node{input},
	}, nil
}

func parseJoin(op, rest string, input *Node, named map[string]*Node) (*Node, error) {
	algo, algoSet := AlgoHash, false
	if head, r := splitHead(rest); head == "hash" || head == "merge" || head == "loops" {
		a, err := parseAlgo(head, AlgoHash)
		if err != nil {
			return nil, err
		}
		algo = a
		algoSet = true
		rest = r
	}
	name, cond := splitHead(rest)
	right, ok := named[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown sub-plan %q (define it with 'with %s = ...')", name, name)
	}
	low := strings.ToLower(cond)
	if !strings.HasPrefix(low, "on ") {
		return nil, fmt.Errorf("plan: %s needs an 'on' clause", op)
	}
	cond = strings.TrimSpace(cond[3:])
	if algo == AlgoLoops {
		if op != "join" {
			return nil, fmt.Errorf("plan: loops algorithm supports only plain join")
		}
		return &Node{Kind: KindNestedLoops, Pred: cond, Inputs: []*Node{input, right}}, nil
	}
	var lterms, rterms []Term
	for _, pair := range strings.Split(cond, ",") {
		sides := strings.Split(pair, "=")
		if len(sides) != 2 {
			return nil, fmt.Errorf("plan: bad join condition %q", pair)
		}
		lt, err := parseTerm(sides[0])
		if err != nil {
			return nil, err
		}
		rt, err := parseTerm(sides[1])
		if err != nil {
			return nil, err
		}
		lterms = append(lterms, lt)
		rterms = append(rterms, rt)
	}
	matchOp := map[string]core.MatchOp{
		"join": core.MatchJoin, "semijoin": core.MatchSemi, "antijoin": core.MatchAnti,
		"leftouter": core.MatchLeftOuter, "rightouter": core.MatchRightOuter,
		"fullouter": core.MatchFullOuter,
	}[op]
	return &Node{
		Kind: KindMatch, MatchOp: matchOp, Algo: algo, AlgoSet: algoSet,
		LeftTerms: lterms, RightTerms: rterms,
		Inputs: []*Node{input, right},
	}, nil
}

func parseSetOp(op, rest string, input *Node, named map[string]*Node) (*Node, error) {
	algo, algoSet := AlgoHash, false
	if head, r := splitHead(rest); head == "hash" || head == "merge" || head == "sort" {
		a, err := parseAlgo(head, AlgoHash)
		if err != nil {
			return nil, err
		}
		algo = a
		algoSet = true
		rest = r
	}
	name := strings.TrimSpace(rest)
	right, ok := named[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown sub-plan %q", name)
	}
	matchOp := map[string]core.MatchOp{
		"union": core.MatchUnion, "intersect": core.MatchIntersect,
		"difference": core.MatchDifference, "antidifference": core.MatchAntiDifference,
	}[op]
	return &Node{
		Kind: KindMatch, MatchOp: matchOp, Algo: algo, AlgoSet: algoSet,
		AllFieldKeys: true,
		Inputs:       []*Node{input, right},
	}, nil
}

func parseDivide(rest string, input *Node, named map[string]*Node) (*Node, error) {
	algo, algoSet := AlgoHash, false
	if head, r := splitHead(rest); head == "hash" || head == "sort" {
		algo, _ = parseAlgo(head, AlgoHash)
		algoSet = true
		rest = r
	}
	name, rest := splitHead(rest)
	right, ok := named[name]
	if !ok {
		return nil, fmt.Errorf("plan: unknown sub-plan %q", name)
	}
	low := strings.ToLower(rest)
	qi := strings.Index(low, "quot ")
	di := strings.Index(low, " div ")
	oi := strings.Index(low, " on ")
	// Each keyword must leave room for the preceding field list, or the
	// slices below run backwards ("quot div x on y" overlaps them).
	if qi != 0 || di < len("quot ") || oi < di+len(" div ") {
		return nil, fmt.Errorf("plan: usage: divide [hash|sort] NAME quot FIELDS div FIELDS on FIELDS")
	}
	quot, err := parseTerms(rest[len("quot "):di])
	if err != nil {
		return nil, err
	}
	div, err := parseTerms(rest[di+len(" div ") : oi])
	if err != nil {
		return nil, err
	}
	divis, err := parseTerms(rest[oi+len(" on "):])
	if err != nil {
		return nil, err
	}
	return &Node{
		Kind: KindDivision, Algo: algo, AlgoSet: algoSet,
		QuotTerms: quot, DivTerms: div, DivisTerms: divis,
		Inputs: []*Node{input, right},
	}, nil
}

func parseExchange(rest string, input *Node) (*Node, error) {
	o := &XOpts{Producers: 1, Consumers: 1}
	var hashTerms, mergeTerms []Term
	for _, tok := range strings.Fields(rest) {
		kv := strings.SplitN(tok, "=", 2)
		key := strings.ToLower(kv[0])
		val := ""
		if len(kv) == 2 {
			val = kv[1]
		}
		switch key {
		case "producers":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("plan: bad producers=%q", val)
			}
			if n < 1 || n > MaxDOP {
				return nil, fmt.Errorf("plan: producers=%d out of range 1..%d", n, MaxDOP)
			}
			o.Producers = n
			o.ProducersSet = true
		case "packet":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("plan: bad packet=%q", val)
			}
			o.PacketSize = n
		case "flow":
			o.FlowControl = strings.EqualFold(val, "on")
		case "slack":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("plan: bad slack=%q", val)
			}
			o.Slack = n
		case "fork":
			switch strings.ToLower(val) {
			case "central":
				o.Fork = core.ForkCentral
			case "tree":
				o.Fork = core.ForkTree
			default:
				return nil, fmt.Errorf("plan: bad fork=%q", val)
			}
		case "forkcost":
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, fmt.Errorf("plan: bad forkcost=%q", val)
			}
			o.ForkCost = d
		case "partition":
			low := strings.ToLower(val)
			switch {
			case low == "rr":
			case strings.HasPrefix(low, "hash(") && strings.HasSuffix(val, ")"):
				terms, err := parseTerms(val[5 : len(val)-1])
				if err != nil {
					return nil, err
				}
				hashTerms = terms
			default:
				return nil, fmt.Errorf("plan: bad partition=%q", val)
			}
		case "broadcast":
			o.Broadcast = true
		case "inline":
			o.Inline = true
		case "merge":
			terms, err := parseTerms(strings.ReplaceAll(val, ":", " "))
			if err != nil {
				return nil, err
			}
			mergeTerms = terms
			o.KeepStreams = true
		default:
			return nil, fmt.Errorf("plan: unknown exchange option %q", tok)
		}
	}
	if o.Inline && o.Producers != 1 {
		// A linear pipeline has a single consumer tree; inline groups of
		// size > 1 need one consumer tree per member and can only be built
		// through the API (core.ExchangeConfig.Inline).
		return nil, fmt.Errorf("plan: inline exchange supports producers=1 in the plan language")
	}
	if o.Inline {
		o.Consumers = 1
	}
	return &Node{
		Kind: KindExchange, X: o,
		HashTerms: hashTerms, MergeTerms: mergeTerms,
		Inputs: []*Node{input},
	}, nil
}
