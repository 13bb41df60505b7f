package expr

import (
	"fmt"

	"repro/internal/record"
)

// The interpreted form of a support function is a small stack bytecode
// program executed by Eval. This mirrors the paper's interpreted scans,
// where "appropriate code for interpretation" is passed as the predicate
// argument and a general interpreter as the predicate function.

type opcode uint8

const (
	opPushConst opcode = iota // arg: constant index
	opLoadInt                 // arg: field index
	opLoadFloat               // arg: field index
	opLoadBool                // arg: field index
	opLoadBytes               // arg: field index
	opI2F                     // promote top of stack int -> float
	opAddI
	opAddF
	opSubI
	opSubF
	opMulI
	opMulF
	opDivI
	opDivF
	opModI
	opNegI
	opNegF
	opNot
	opCmp    // arg: encodes comparison op; pops 2, pushes bool
	opLike   // pops pattern and subject, pushes bool
	opJmp    // arg: absolute target
	opJmpIfF // arg: absolute target; pops unless jumping (short-circuit AND)
	opJmpIfT // arg: absolute target; pops unless jumping (short-circuit OR)
	opPop    // discard top of stack
	opHalt   // end of program
)

type instr struct {
	op  opcode
	arg int32
}

// Program is a compiled-to-bytecode expression, executable with Eval.
type Program struct {
	code     []instr
	consts   []record.Value
	str      string
	maxDepth int
}

// astDepth returns the maximum operand-stack depth needed to evaluate e.
func astDepth(e Expr) int {
	switch n := e.(type) {
	case *Un:
		return astDepth(n.X)
	case *Bin:
		dl, dr := astDepth(n.L), astDepth(n.R)
		if n.Op == OpAnd || n.Op == OpOr {
			// Left result is popped (or is the final answer) before the
			// right side runs.
			return max(dl, dr)
		}
		return max(dl, 1+dr)
	default:
		return 1
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// CompileProgram type-checks e against the schema and translates it to
// bytecode.
func CompileProgram(e Expr, s *record.Schema) (*Program, error) {
	if _, err := e.TypeCheck(s); err != nil {
		return nil, err
	}
	p := &Program{str: e.String(), maxDepth: astDepth(e)}
	if err := p.emit(e, s); err != nil {
		return nil, err
	}
	p.code = append(p.code, instr{op: opHalt})
	return p, nil
}

func (p *Program) emitConst(v record.Value) {
	p.consts = append(p.consts, v)
	p.code = append(p.code, instr{op: opPushConst, arg: int32(len(p.consts) - 1)})
}

func (p *Program) emit(e Expr, s *record.Schema) error {
	switch n := e.(type) {
	case *Lit:
		p.emitConst(n.Val)
		return nil
	case *Field:
		return p.emitLoad(n.Index, n.typ)
	case *Ident:
		return p.emitLoad(n.index, n.typ)
	case *Un:
		if err := p.emit(n.X, s); err != nil {
			return err
		}
		switch {
		case n.Op == OpNot:
			p.code = append(p.code, instr{op: opNot})
		case n.typ == record.TInt:
			p.code = append(p.code, instr{op: opNegI})
		default:
			p.code = append(p.code, instr{op: opNegF})
		}
		return nil
	case *Bin:
		return p.emitBin(n, s)
	default:
		return fmt.Errorf("expr: cannot compile %T", e)
	}
}

func (p *Program) emitLoad(idx int, t record.Type) error {
	var op opcode
	switch t {
	case record.TInt:
		op = opLoadInt
	case record.TFloat:
		op = opLoadFloat
	case record.TBool:
		op = opLoadBool
	default:
		op = opLoadBytes
	}
	p.code = append(p.code, instr{op: op, arg: int32(idx)})
	return nil
}

func (p *Program) emitBin(n *Bin, s *record.Schema) error {
	// Short-circuit logic.
	switch n.Op {
	case OpAnd, OpOr:
		if err := p.emit(n.L, s); err != nil {
			return err
		}
		jop := opJmpIfF
		if n.Op == OpOr {
			jop = opJmpIfT
		}
		jmpAt := len(p.code)
		p.code = append(p.code, instr{op: jop})
		if err := p.emit(n.R, s); err != nil {
			return err
		}
		p.code[jmpAt].arg = int32(len(p.code))
		return nil
	}

	lt, _ := n.L.TypeCheck(s) // already checked; cannot fail
	rt, _ := n.R.TypeCheck(s)
	if err := p.emit(n.L, s); err != nil {
		return err
	}
	if n.promote && lt == record.TInt {
		p.code = append(p.code, instr{op: opI2F})
	}
	if err := p.emit(n.R, s); err != nil {
		return err
	}
	if n.promote && rt == record.TInt {
		p.code = append(p.code, instr{op: opI2F})
	}

	flt := n.promote || lt == record.TFloat
	switch n.Op {
	case OpAdd:
		p.code = append(p.code, instr{op: pick(flt, opAddF, opAddI)})
	case OpSub:
		p.code = append(p.code, instr{op: pick(flt, opSubF, opSubI)})
	case OpMul:
		p.code = append(p.code, instr{op: pick(flt, opMulF, opMulI)})
	case OpDiv:
		p.code = append(p.code, instr{op: pick(flt, opDivF, opDivI)})
	case OpMod:
		p.code = append(p.code, instr{op: opModI})
	case OpLike:
		p.code = append(p.code, instr{op: opLike})
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		p.code = append(p.code, instr{op: opCmp, arg: int32(n.Op)})
	default:
		return fmt.Errorf("expr: cannot compile binary %s", n.Op)
	}
	return nil
}

func pick(f bool, a, b opcode) opcode {
	if f {
		return a
	}
	return b
}

// Eval executes the program against one encoded record and returns the
// result. It is the interpreter entry point used by interpreted support
// functions.
func (p *Program) Eval(s *record.Schema, data []byte) (record.Value, error) {
	var arr [16]record.Value
	stack := arr[:]
	if p.maxDepth > len(arr) {
		stack = make([]record.Value, p.maxDepth)
	}
	sp := 0
	push := func(v record.Value) {
		stack[sp] = v
		sp++
	}
	code := p.code
	for pc := 0; pc < len(code); {
		in := code[pc]
		pc++
		switch in.op {
		case opPushConst:
			push(p.consts[in.arg])
		case opLoadInt:
			push(record.Int(s.GetInt(data, int(in.arg))))
		case opLoadFloat:
			push(record.Float(s.GetFloat(data, int(in.arg))))
		case opLoadBool:
			push(record.Bool(s.GetBool(data, int(in.arg))))
		case opLoadBytes:
			push(record.Bytes(s.GetBytes(data, int(in.arg))))
		case opI2F:
			stack[sp-1] = record.Float(float64(stack[sp-1].I))
		case opAddI:
			sp--
			stack[sp-1] = record.Int(stack[sp-1].I + stack[sp].I)
		case opAddF:
			sp--
			stack[sp-1] = record.Float(stack[sp-1].F + stack[sp].F)
		case opSubI:
			sp--
			stack[sp-1] = record.Int(stack[sp-1].I - stack[sp].I)
		case opSubF:
			sp--
			stack[sp-1] = record.Float(stack[sp-1].F - stack[sp].F)
		case opMulI:
			sp--
			stack[sp-1] = record.Int(stack[sp-1].I * stack[sp].I)
		case opMulF:
			sp--
			stack[sp-1] = record.Float(stack[sp-1].F * stack[sp].F)
		case opDivI:
			sp--
			if stack[sp].I == 0 {
				return record.Value{}, fmt.Errorf("expr: integer division by zero in %s", p.str)
			}
			stack[sp-1] = record.Int(stack[sp-1].I / stack[sp].I)
		case opDivF:
			sp--
			stack[sp-1] = record.Float(stack[sp-1].F / stack[sp].F)
		case opModI:
			sp--
			if stack[sp].I == 0 {
				return record.Value{}, fmt.Errorf("expr: integer modulo by zero in %s", p.str)
			}
			stack[sp-1] = record.Int(stack[sp-1].I % stack[sp].I)
		case opNegI:
			stack[sp-1] = record.Int(-stack[sp-1].I)
		case opNegF:
			stack[sp-1] = record.Float(-stack[sp-1].F)
		case opNot:
			stack[sp-1] = record.Bool(!stack[sp-1].B)
		case opCmp:
			sp--
			a, b, op := stack[sp-1], stack[sp], Op(in.arg)
			var ok bool
			if a.Kind == record.TFloat { // so is b, once promoted: IEEE, not the total order
				ok = order(op, a.F, b.F)
			} else {
				ok = order(op, record.CompareValues(a, b), 0)
			}
			stack[sp-1] = record.Bool(ok)
		case opLike:
			sp--
			stack[sp-1] = record.Bool(likeMatch(stack[sp-1].S, stack[sp].S))
		case opJmp:
			pc = int(in.arg)
		case opJmpIfF:
			if !stack[sp-1].B {
				pc = int(in.arg)
			} else {
				sp--
			}
		case opJmpIfT:
			if stack[sp-1].B {
				pc = int(in.arg)
			} else {
				sp--
			}
		case opPop:
			sp--
		case opHalt:
			if sp != 1 {
				return record.Value{}, fmt.Errorf("expr: corrupt program %q: stack depth %d at halt", p.str, sp)
			}
			return stack[0], nil
		}
	}
	return record.Value{}, fmt.Errorf("expr: program %q fell off the end", p.str)
}

// order reports whether a op b holds for a comparison operator. On
// floats it gives IEEE results: NaN is unordered, and unequal to
// everything, itself included.
func order[T int | int64 | float64](op Op, a, b T) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNe:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	}
	return a >= b
}
