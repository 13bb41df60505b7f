package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Parse parses the expression surface language into an (unresolved) AST.
// Grammar, lowest to highest precedence:
//
//	expr   := or
//	or     := and { OR and }
//	and    := not { AND not }
//	not    := [NOT] cmp
//	cmp    := sum [ ( = | <> | != | < | <= | > | >= | LIKE ) sum ]
//	sum    := term { ( + | - ) term }
//	term   := unary { ( * | / | % ) unary }
//	unary  := [ - ] primary
//	primary:= literal | identifier | $N | '(' expr ')'
//
// Identifiers are resolved against a schema later, by TypeCheck.
func Parse(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("expr: unexpected %q after expression", p.peek().text)
	}
	return e, nil
}

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokFloat
	tokString
	tokOp   // punctuation operators
	tokKeyw // AND OR NOT LIKE TRUE FALSE
)

type token struct {
	kind tokKind
	text string
}

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c >= '0' && c <= '9' || (c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9'):
			j := i
			isFloat := false
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' || src[j] == 'e' ||
				src[j] == 'E' || ((src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				if src[j] == '.' || src[j] == 'e' || src[j] == 'E' {
					isFloat = true
				}
				j++
			}
			kind := tokInt
			if isFloat {
				kind = tokFloat
			}
			toks = append(toks, token{kind, src[i:j]})
			i = j
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			for {
				if j >= len(src) {
					return nil, fmt.Errorf("expr: unterminated string literal")
				}
				if src[j] == '\'' {
					if j+1 < len(src) && src[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, token{tokString, sb.String()})
			i = j + 1
		case isIdentStart(rune(c)):
			j := i
			for j < len(src) && isIdentPart(rune(src[j])) {
				j++
			}
			word := src[i:j]
			switch strings.ToUpper(word) {
			case "AND", "OR", "NOT", "LIKE", "TRUE", "FALSE":
				toks = append(toks, token{tokKeyw, strings.ToUpper(word)})
			default:
				toks = append(toks, token{tokIdent, word})
			}
			i = j
		case c == '$':
			j := i + 1
			for j < len(src) && src[j] >= '0' && src[j] <= '9' {
				j++
			}
			if j == i+1 {
				return nil, fmt.Errorf("expr: $ must be followed by a field number")
			}
			toks = append(toks, token{tokIdent, src[i:j]})
			i = j
		default:
			for _, op := range []string{"<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "(", ")"} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, token{tokOp, op})
					i += len(op)
					goto next
				}
			}
			return nil, fmt.Errorf("expr: unexpected character %q", c)
		next:
		}
	}
	toks = append(toks, token{tokEOF, ""})
	return toks, nil
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentPart(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) accept(kind tokKind, text string) bool {
	if p.peek().kind == kind && p.peek().text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyw, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyw, "AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyw, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Un{Op: OpNot, X: x}, nil
	}
	return p.parseCmp()
}

var cmpOps = map[string]Op{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokOp {
		if op, ok := cmpOps[p.peek().text]; ok {
			p.next()
			r, err := p.parseSum()
			if err != nil {
				return nil, err
			}
			return &Bin{Op: op, L: l, R: r}, nil
		}
	}
	if p.accept(tokKeyw, "LIKE") {
		r, err := p.parseSum()
		if err != nil {
			return nil, err
		}
		return &Bin{Op: OpLike, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) parseSum() (Expr, error) {
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.accept(tokOp, "+"):
			op = OpAdd
		case p.accept(tokOp, "-"):
			op = OpSub
		default:
			return l, nil
		}
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
}

func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op Op
		switch {
		case p.accept(tokOp, "*"):
			op = OpMul
		case p.accept(tokOp, "/"):
			op = OpDiv
		case p.accept(tokOp, "%"):
			op = OpMod
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Bin{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokOp, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Un{Op: OpNeg, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokInt:
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad integer literal %q: %v", t.text, err)
		}
		return &Lit{Val: recordInt(i)}, nil
	case tokFloat:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("expr: bad float literal %q: %v", t.text, err)
		}
		return &Lit{Val: recordFloat(f)}, nil
	case tokString:
		return &Lit{Val: recordStr(t.text)}, nil
	case tokKeyw:
		switch t.text {
		case "TRUE":
			return &Lit{Val: recordBool(true)}, nil
		case "FALSE":
			return &Lit{Val: recordBool(false)}, nil
		}
		return nil, fmt.Errorf("expr: unexpected keyword %q", t.text)
	case tokIdent:
		if strings.HasPrefix(t.text, "$") {
			n, err := strconv.Atoi(t.text[1:])
			if err != nil {
				return nil, fmt.Errorf("expr: bad field reference %q", t.text)
			}
			return &Field{Index: n}, nil
		}
		return &Ident{Name: t.text}, nil
	case tokOp:
		if t.text == "(" {
			e, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.accept(tokOp, ")") {
				return nil, fmt.Errorf("expr: missing closing parenthesis")
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("expr: unexpected token %q", t.text)
}
