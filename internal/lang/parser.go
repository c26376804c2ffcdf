package lang

import (
	"fmt"
	"strconv"

	"reusetool/internal/interp"
	"reusetool/internal/ir"
)

// Parse builds an ir.Program from source text, plus the initializer for
// its data arrays ("init" declarations; nil when the program has none).
// The returned program has not been finalized.
func Parse(src string) (*ir.Program, func(*interp.Machine) error, error) {
	prog, init, _, err := ParseFile("<input>", src)
	return prog, init, err
}

// FileMeta is source-level information ParseFile collects beyond the IR:
// which data arrays an init declaration covers and where each parameter
// was declared. The static checker (internal/reusecheck.Check) consumes it.
type FileMeta struct {
	// Inited marks data arrays covered by an init declaration.
	Inited map[*ir.Array]bool
	// ParamLines maps parameter names to their declaration line.
	ParamLines map[string]int
}

// ParseFile is Parse with a file name: error messages carry file:line
// positions, and the returned FileMeta locates declarations for checker
// diagnostics.
func ParseFile(filename, src string) (*ir.Program, func(*interp.Machine) error, *FileMeta, error) {
	toks, err := lex(filename, src)
	if err != nil {
		return nil, nil, nil, err
	}
	p := &parser{toks: toks, filename: filename,
		meta: &FileMeta{Inited: map[*ir.Array]bool{}, ParamLines: map[string]int{}}}
	prog, err := p.file()
	if err != nil {
		return nil, nil, nil, err
	}
	return prog, p.initializer(), p.meta, nil
}

// initSpec is one "init <array> <kind> [arg]" declaration.
type initSpec struct {
	array *ir.Array
	kind  string
	arg   int64
}

// initializer converts the collected init declarations into an
// interp.WithInit callback.
func (p *parser) initializer() func(*interp.Machine) error {
	if len(p.inits) == 0 {
		return nil
	}
	specs := p.inits
	return func(m *interp.Machine) error {
		for _, s := range specs {
			n := m.ArrayLen(s.array)
			switch s.kind {
			case "identity":
				m.FillData(s.array, func(i int64) int64 { return i })
			case "stride":
				m.FillData(s.array, func(i int64) int64 { return (i * s.arg) % n })
			case "random":
				state := uint64(s.arg)*2862933555777941757 + 3037000493
				m.FillData(s.array, func(i int64) int64 {
					state = state*6364136223846793005 + 1442695040888963407
					return int64(state % uint64(n))
				})
			case "const":
				m.FillData(s.array, func(int64) int64 { return s.arg })
			default:
				return fmt.Errorf("lang: unknown init kind %q", s.kind)
			}
		}
		return nil
	}
}

type parser struct {
	toks     []token
	pos      int
	filename string
	meta     *FileMeta

	prog     *ir.Program
	arrays   map[string]*ir.Array
	routines map[string]*ir.Routine
	inits    []initSpec
	// pendingCalls are fixed up once all routines are declared.
	pendingCalls []pendingCall
}

type pendingCall struct {
	stmt *ir.Call
	name string
	line int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("lang: %s:%d: %s", p.filename, t.line, fmt.Sprintf(format, args...))
}

// accept consumes the next token if it is the given identifier/punct.
func (p *parser) accept(text string) bool {
	if p.peek().text == text && p.peek().kind != tokEOF {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) (token, error) {
	t := p.next()
	if t.text != text || t.kind == tokEOF {
		return t, p.errf(t, "expected %q, got %q", text, t.text)
	}
	return t, nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.next()
	if t.kind != tokIdent {
		return t, p.errf(t, "expected identifier, got %q", t.text)
	}
	return t, nil
}

func (p *parser) expectNumber() (int64, token, error) {
	t := p.next()
	if t.kind != tokNumber {
		return 0, t, p.errf(t, "expected number, got %q", t.text)
	}
	v, err := strconv.ParseInt(t.text, 10, 64)
	if err != nil {
		return 0, t, p.errf(t, "bad number %q", t.text)
	}
	return v, t, nil
}

var elemSizes = map[string]int64{"f64": 8, "f32": 4, "i64": 8, "i32": 4, "i8": 1}

func (p *parser) file() (*ir.Program, error) {
	if _, err := p.expect("program"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.prog = ir.NewProgram(name.text)
	p.arrays = map[string]*ir.Array{}
	p.routines = map[string]*ir.Routine{}

	for !p.atEOF() {
		t := p.next()
		switch t.text {
		case "param":
			id, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			v, _, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			p.prog.Param(id.text, v)
			p.meta.ParamLines[id.text] = id.line

		case "array", "dataarray":
			id, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ty, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			elem, ok := elemSizes[ty.text]
			if !ok {
				return nil, p.errf(ty, "unknown element type %q (want f64, f32, i64, i32, i8)", ty.text)
			}
			if _, err := p.expect("["); err != nil {
				return nil, err
			}
			dims, err := p.exprList("]")
			if err != nil {
				return nil, err
			}
			if _, dup := p.arrays[id.text]; dup {
				return nil, p.errf(id, "array %q redeclared", id.text)
			}
			if t.text == "dataarray" {
				p.arrays[id.text] = p.prog.AddDataArray(id.text, elem, dims...)
			} else {
				p.arrays[id.text] = p.prog.AddArray(id.text, elem, dims...)
			}

		case "routine":
			if err := p.routine(); err != nil {
				return nil, err
			}

		case "init":
			id, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			arr, ok := p.arrays[id.text]
			if !ok || !arr.Data {
				return nil, p.errf(id, "init target %q must be a declared dataarray", id.text)
			}
			kind, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			spec := initSpec{array: arr, kind: kind.text}
			switch kind.text {
			case "identity":
			case "stride", "random", "const":
				v, _, err := p.expectNumber()
				if err != nil {
					return nil, err
				}
				spec.arg = v
			default:
				return nil, p.errf(kind, "unknown init kind %q (want identity, stride, random, const)", kind.text)
			}
			p.inits = append(p.inits, spec)
			p.meta.Inited[arr] = true

		default:
			return nil, p.errf(t, "expected param, array, dataarray or routine, got %q", t.text)
		}
	}

	// Fix up calls now that all routines exist.
	for _, pc := range p.pendingCalls {
		r, ok := p.routines[pc.name]
		if !ok {
			return nil, fmt.Errorf("lang: %s:%d: call to undeclared routine %q", p.filename, pc.line, pc.name)
		}
		pc.stmt.Callee = r
	}
	// An explicit "main" routine wins over declaration order.
	if r, ok := p.routines["main"]; ok {
		p.prog.Main = r
	}
	if p.prog.Main == nil {
		return nil, fmt.Errorf("lang: %s: program %q declares no routines", p.filename, p.prog.Name)
	}
	return p.prog, nil
}

func (p *parser) routine() error {
	id, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, dup := p.routines[id.text]; dup {
		return p.errf(id, "routine %q redeclared", id.text)
	}
	file := p.prog.Name + ".loop"
	line := id.line
	for {
		switch {
		case p.accept("file"):
			ft, err := p.expectIdent()
			if err != nil {
				return err
			}
			file = ft.text
		case p.accept("line"):
			v, _, err := p.expectNumber()
			if err != nil {
				return err
			}
			line = int(v)
		default:
			goto body
		}
	}
body:
	r := p.prog.AddRoutine(id.text, file, line)
	p.routines[id.text] = r
	body, err := p.block()
	if err != nil {
		return err
	}
	r.Body = body
	return nil
}

func (p *parser) block() ([]ir.Stmt, error) {
	if _, err := p.expect("{"); err != nil {
		return nil, err
	}
	var out []ir.Stmt
	for !p.accept("}") {
		if p.atEOF() {
			return nil, p.errf(p.peek(), "unexpected end of input inside block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *parser) stmt() (ir.Stmt, error) {
	t := p.next()
	switch t.text {
	case "for", "timestep":
		timestep := false
		if t.text == "timestep" {
			timestep = true
			if _, err := p.expect("for"); err != nil {
				return nil, err
			}
		}
		return p.forStmt(timestep, t.line)

	case "let":
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		l := ir.Set(p.prog.Var(id.text), e)
		l.Line = id.line
		return l, nil

	case "if":
		return p.ifStmt()

	case "access":
		var refs []*ir.Ref
		for {
			r, err := p.ref()
			if err != nil {
				return nil, err
			}
			refs = append(refs, r)
			if !p.accept(",") {
				break
			}
		}
		return ir.Do(refs...), nil

	case "call":
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		c := &ir.Call{}
		p.pendingCalls = append(p.pendingCalls, pendingCall{stmt: c, name: id.text, line: id.line})
		return c, nil
	}
	return nil, p.errf(t, "expected a statement, got %q", t.text)
}

func (p *parser) forStmt(timestep bool, defaultLine int) (ir.Stmt, error) {
	id, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect("="); err != nil {
		return nil, err
	}
	lo, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(".."); err != nil {
		return nil, err
	}
	hi, err := p.expr()
	if err != nil {
		return nil, err
	}
	step := int64(1)
	line := defaultLine
	for {
		switch {
		case p.accept("by"):
			neg := p.accept("-")
			v, _, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			if neg {
				v = -v
			}
			step = v
		case p.accept("line"):
			v, _, err := p.expectNumber()
			if err != nil {
				return nil, err
			}
			line = int(v)
		default:
			goto body
		}
	}
body:
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	l := ir.ForStep(p.prog.Var(id.text), lo, hi, ir.C(step), body...).At(line)
	if timestep {
		l.AsTimeStep()
	}
	return l, nil
}

var cmpOps = map[string]func(l, r ir.Expr) ir.Cond{
	"==": ir.Eq, "!=": ir.Ne, "<": ir.Lt, "<=": ir.Le, ">": ir.Gt, ">=": ir.Ge,
}

func (p *parser) ifStmt() (ir.Stmt, error) {
	l, err := p.expr()
	if err != nil {
		return nil, err
	}
	opTok := p.next()
	mk, ok := cmpOps[opTok.text]
	if !ok {
		return nil, p.errf(opTok, "expected a comparison operator, got %q", opTok.text)
	}
	r, err := p.expr()
	if err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	var els []ir.Stmt
	if p.accept("else") {
		els, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	return ir.WhenElse(mk(l, r), then, els), nil
}

// ref parses Array[e, ...] with an optional trailing "!" marking a write.
func (p *parser) ref() (*ir.Ref, error) {
	id, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	arr, ok := p.arrays[id.text]
	if !ok {
		return nil, p.errf(id, "access to undeclared array %q", id.text)
	}
	if _, err := p.expect("["); err != nil {
		return nil, err
	}
	idx, err := p.exprList("]")
	if err != nil {
		return nil, err
	}
	r := arr.Read(idx...)
	r.Line = id.line
	if p.accept("!") {
		r.Write = true
	}
	return r, nil
}

// exprList parses comma-separated expressions up to the closing token.
func (p *parser) exprList(closing string) ([]ir.Expr, error) {
	var out []ir.Expr
	for {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if p.accept(",") {
			continue
		}
		if _, err := p.expect(closing); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// at stamps the source line on expression nodes that can carry one
// (Bin, Load); constants fold away and variables are interned, so they
// stay position-free.
func at(e ir.Expr, line int) ir.Expr {
	switch x := e.(type) {
	case *ir.Bin:
		if x.Line == 0 {
			x.Line = line
		}
	case *ir.Load:
		if x.Line == 0 {
			x.Line = line
		}
	}
	return e
}

// expr := term (("+"|"-") term)*
func (p *parser) expr() (ir.Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		ln := p.peek().line
		switch {
		case p.accept("+"):
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			l = at(ir.Add(l, r), ln)
		case p.accept("-"):
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			l = at(ir.Sub(l, r), ln)
		default:
			return l, nil
		}
	}
}

// term := factor (("*"|"/"|"%") factor)*
func (p *parser) term() (ir.Expr, error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		switch {
		case p.accept("*"):
			r, err := p.factor()
			if err != nil {
				return nil, err
			}
			l = at(ir.Mul(l, r), op.line)
		case p.accept("/"):
			r, err := p.factor()
			if err != nil {
				return nil, err
			}
			if err := p.constZeroDivisor(op, "division", l, r); err != nil {
				return nil, err
			}
			l = at(ir.Div(l, r), op.line)
		case p.accept("%"):
			r, err := p.factor()
			if err != nil {
				return nil, err
			}
			if err := p.constZeroDivisor(op, "modulo", l, r); err != nil {
				return nil, err
			}
			l = at(ir.Mod(l, r), op.line)
		default:
			return l, nil
		}
	}
}

// constZeroDivisor refuses a division or modulo of two constants whose
// divisor is 0: constant folding could not evaluate it.
func (p *parser) constZeroDivisor(op token, what string, l, r ir.Expr) error {
	_, lc := l.(ir.Const)
	if rc, ok := r.(ir.Const); ok && lc && rc == 0 {
		return p.errf(op, "%s by zero in constant expression", what)
	}
	return nil
}

func (p *parser) factor() (ir.Expr, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf(t, "bad number %q", t.text)
		}
		return ir.C(v), nil

	case t.text == "-":
		f, err := p.factor()
		if err != nil {
			return nil, err
		}
		return at(ir.Sub(ir.C(0), f), t.line), nil

	case t.text == "(":
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil

	case t.text == "min" || t.text == "max":
		if _, err := p.expect("("); err != nil {
			return nil, err
		}
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(","); err != nil {
			return nil, err
		}
		b, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(")"); err != nil {
			return nil, err
		}
		if t.text == "min" {
			return at(ir.Min(a, b), t.line), nil
		}
		return at(ir.Max(a, b), t.line), nil

	case t.kind == tokIdent:
		// Data-array indexing becomes an indirection.
		if p.peek().text == "[" {
			arr, ok := p.arrays[t.text]
			if !ok {
				return nil, p.errf(t, "indexing undeclared array %q", t.text)
			}
			if !arr.Data {
				return nil, p.errf(t, "array %q used in an expression must be a dataarray", t.text)
			}
			p.next() // consume "["
			idx, err := p.exprList("]")
			if err != nil {
				return nil, err
			}
			return &ir.Load{Array: arr, Index: idx, Line: t.line}, nil
		}
		return p.prog.Var(t.text), nil
	}
	return nil, p.errf(t, "expected an expression, got %q", t.text)
}
