package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
)

// Parse parses a single StreamSQL statement.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{src: src, toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errf("trailing input starting at %q", p.peek().text)
	}
	return st, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sql: expected SELECT statement, got %T", st)
	}
	return sel, nil
}

type parser struct {
	src  string
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }
func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near offset %d)", fmt.Sprintf(format, args...), p.peek().pos)
}

// kw reports whether the next token is the given keyword, consuming it.
func (p *parser) kw(word string) bool {
	t := p.peek()
	if t.kind == tokKeyword && t.text == word {
		p.advance()
		return true
	}
	return false
}

// expectKw consumes the keyword or errors.
func (p *parser) expectKw(word string) error {
	if !p.kw(word) {
		return p.errf("expected %s, got %q", word, p.peek().text)
	}
	return nil
}

// punct reports whether the next token is the punctuation, consuming it.
func (p *parser) punct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.punct(s) {
		return p.errf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

// ident consumes an identifier (keywords are not identifiers).
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.kw("CREATE"):
		return p.createView()
	case p.kw("WITH"):
		return p.withRecursive()
	default:
		return p.selectStmt()
	}
}

func (p *parser) createView() (Statement, error) {
	if err := p.expectKw("VIEW"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	paren := p.punct("(")
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if paren {
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	return &CreateView{Name: name, Query: sel}, nil
}

func (p *parser) withRecursive() (Statement, error) {
	if err := p.expectKw("RECURSIVE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	var cols []string
	if p.punct("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			cols = append(cols, c)
			if !p.punct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	base, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("UNION"); err != nil {
		return nil, err
	}
	all := p.kw("ALL")
	rec, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return &WithRecursive{Name: name, Cols: cols, Base: base, Rec: rec, All: all, Body: body}, nil
}

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	s.Distinct = p.kw("DISTINCT")
	if p.punct("*") {
		s.Star = true
	} else {
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.kw("AS") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.peek().kind == tokIdent {
				// bare alias
				item.Alias = p.advance().text
			}
			s.Items = append(s.Items, item)
			if !p.punct(",") {
				break
			}
		}
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	for {
		f, err := p.fromItem()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, f)
		if !p.punct(",") {
			break
		}
	}
	if p.kw("WHERE") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.kw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, c)
			if !p.punct(",") {
				break
			}
		}
	}
	if p.kw("HAVING") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.kw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			c, err := p.columnRef()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Ref: c}
			if p.kw("DESC") {
				key.Desc = true
			} else {
				p.kw("ASC")
			}
			s.OrderBy = append(s.OrderBy, key)
			if !p.punct(",") {
				break
			}
		}
	}
	if p.kw("LIMIT") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		s.Limit = n
	}
	if p.kw("SAMPLE") {
		if err := p.expectKw("PERIOD"); err != nil {
			return nil, err
		}
		d, err := p.duration()
		if err != nil {
			return nil, err
		}
		s.SamplePeriod = d
	} else if p.kw("EVERY") { // synonym
		d, err := p.duration()
		if err != nil {
			return nil, err
		}
		s.SamplePeriod = d
	}
	if p.kw("OUTPUT") {
		if err := p.expectKw("TO"); err != nil {
			return nil, err
		}
		disp, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.OutputTo = disp
	}
	return s, nil
}

func (p *parser) fromItem() (FromItem, error) {
	name, err := p.ident()
	if err != nil {
		return FromItem{}, err
	}
	f := FromItem{Name: name}
	if p.kw("AS") {
		a, err := p.ident()
		if err != nil {
			return FromItem{}, err
		}
		f.Alias = a
	} else if p.peek().kind == tokIdent {
		f.Alias = p.advance().text
	}
	if p.punct("[") {
		w := &WindowSpec{}
		switch {
		case p.kw("RANGE"):
			d, err := p.duration()
			if err != nil {
				return FromItem{}, err
			}
			w.Kind, w.Range = WindowRange, d
			if p.kw("SLIDE") {
				sd, err := p.duration()
				if err != nil {
					return FromItem{}, err
				}
				w.Slide = sd
			}
		case p.kw("ROWS"):
			n, err := p.intLit()
			if err != nil {
				return FromItem{}, err
			}
			w.Kind, w.Rows = WindowRows, n
		case p.kw("NOW"):
			w.Kind = WindowNow
		default:
			return FromItem{}, p.errf("expected RANGE, ROWS or NOW in window, got %q", p.peek().text)
		}
		if err := p.expectPunct("]"); err != nil {
			return FromItem{}, err
		}
		f.Window = w
	}
	return f, nil
}

// columnRef parses ident[.ident].
func (p *parser) columnRef() (string, error) {
	a, err := p.ident()
	if err != nil {
		return "", err
	}
	if p.punct(".") {
		b, err := p.ident()
		if err != nil {
			return "", err
		}
		return a + "." + b, nil
	}
	return a, nil
}

func (p *parser) intLit() (int, error) {
	t := p.peek()
	if t.kind != tokNumber || strings.Contains(t.text, ".") {
		return 0, p.errf("expected integer, got %q", t.text)
	}
	p.advance()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) duration() (time.Duration, error) {
	n, err := p.intLit()
	if err != nil {
		return 0, err
	}
	t := p.peek()
	if t.kind != tokKeyword {
		return 0, p.errf("expected time unit, got %q", t.text)
	}
	var unit time.Duration
	switch t.text {
	case "MILLISECONDS", "MILLISECOND":
		unit = time.Millisecond
	case "SECONDS", "SECOND":
		unit = time.Second
	case "MINUTES", "MINUTE":
		unit = time.Minute
	case "HOURS", "HOUR":
		unit = time.Hour
	default:
		return 0, p.errf("expected time unit, got %q", t.text)
	}
	if int64(n) > math.MaxInt64/int64(unit) {
		return 0, p.errf("duration %d %s out of range", n, t.text)
	}
	p.advance()
	return time.Duration(n) * unit, nil
}

// --- expressions -------------------------------------------------------

// expr parses the full precedence ladder:
//
//	OR < AND / ^ < NOT < comparison, LIKE, IS NULL < + - < * / % < unary - < primary
func (p *parser) expr() (expr.Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (expr.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.kw("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = expr.Bin{Op: expr.OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (expr.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.kw("AND") || p.punct("^") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = expr.Bin{Op: expr.OpAnd, L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (expr.Expr, error) {
	if p.kw("NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return expr.Un{Op: expr.OpNot, X: x}, nil
	}
	return p.cmpExpr()
}

var cmpOps = map[string]expr.BinOp{
	"=": expr.OpEq, "<>": expr.OpNe, "<": expr.OpLt,
	"<=": expr.OpLe, ">": expr.OpGt, ">=": expr.OpGe,
}

func (p *parser) cmpExpr() (expr.Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokPunct {
		if op, ok := cmpOps[t.text]; ok {
			p.advance()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return expr.Bin{Op: op, L: l, R: r}, nil
		}
	}
	if p.kw("LIKE") {
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return expr.Bin{Op: expr.OpLike, L: l, R: r}, nil
	}
	if t.kind == tokKeyword && t.text == "NOT" &&
		p.toks[p.pos+1].kind == tokKeyword && p.toks[p.pos+1].text == "LIKE" {
		p.advance()
		p.advance()
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return expr.Un{Op: expr.OpNot, X: expr.Bin{Op: expr.OpLike, L: l, R: r}}, nil
	}
	if p.kw("IS") {
		neg := p.kw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return expr.IsNull{X: l, Neg: neg}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (expr.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.punct("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Bin{Op: expr.OpAdd, L: l, R: r}
		case p.punct("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Bin{Op: expr.OpSub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (expr.Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.punct("*"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Bin{Op: expr.OpMul, L: l, R: r}
		case p.punct("/"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Bin{Op: expr.OpDiv, L: l, R: r}
		case p.punct("%"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Bin{Op: expr.OpMod, L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unaryExpr() (expr.Expr, error) {
	if p.punct("-") {
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		// constant-fold negative literals for cleaner plans
		if lit, ok := x.(expr.Lit); ok && lit.V.T == data.TInt {
			return expr.Lit{V: data.Int(-lit.V.I)}, nil
		}
		if lit, ok := x.(expr.Lit); ok && lit.V.T == data.TFloat {
			return expr.Lit{V: data.Float(-lit.V.F)}, nil
		}
		return expr.Un{Op: expr.OpNeg, X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (expr.Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", t.text)
			}
			return expr.Lit{V: data.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", t.text)
		}
		return expr.Lit{V: data.Int(n)}, nil

	case tokString:
		p.advance()
		return expr.Lit{V: data.Str(t.text)}, nil

	case tokKeyword:
		switch t.text {
		case "NULL":
			p.advance()
			return expr.Lit{V: data.Null}, nil
		case "TRUE":
			p.advance()
			return expr.Lit{V: data.Bool(true)}, nil
		case "FALSE":
			p.advance()
			return expr.Lit{V: data.Bool(false)}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)

	case tokIdent:
		name := p.advance().text
		if p.punct("(") {
			// function call
			var args []expr.Expr
			if !p.punct(")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.punct(",") {
						break
					}
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
			}
			// aggregates are recognized later by the planner; parse uniformly
			return expr.Call{Name: name, Args: args}, nil
		}
		if p.punct(".") {
			sub, err := p.ident()
			if err != nil {
				return nil, err
			}
			return expr.Col{Ref: name + "." + sub}, nil
		}
		return expr.Col{Ref: name}, nil

	case tokPunct:
		if t.text == "(" {
			p.advance()
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		if t.text == "*" {
			// COUNT(*) reaches here via the Call argument path
			p.advance()
			return expr.Col{Ref: "*"}, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}
