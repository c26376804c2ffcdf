// Package interp executes an ir.Program, producing the instrumentation
// event stream the paper obtains by rewriting binaries.
//
// The interpreter lays the program's arrays out in a flat virtual address
// space (column-major, like the Fortran codes in the paper's case studies),
// then walks the statement tree of the main routine: routine and loop
// entries/exits become scope events, Access statements become memory-access
// events with concrete byte addresses. Loop trip counts are recorded for
// the static fragmentation analysis (reuse-group splitting needs average
// trip counts, Section III step 2).
//
// A leaf loop — one whose body holds only Access statements — runs from
// a plan built the first time the loop is entered in a run (plan.go).
// A reference whose subscripts are affine in the loop variable (the
// paper's base + Σ coeff·loopvar address form, from internal/symbolic)
// is bounds-checked once per loop instance, at its first and last
// iteration, and its address then advances by one add per iteration;
// every other reference is evaluated and checked per access, as the
// walker does. An instance whose entry check does not prove every
// affine reference in bounds runs on the walker, so a planned run emits
// the same events, trip counts and errors as a walked one.
//
// Evaluation never panics: a zero divisor or a bad Load is a fault
// value that fails the run with an error naming the expression, and
// every loop runs by a trip count computed in unsigned arithmetic, so a
// bound at the edge of the int64 range cannot wrap the counter.
package interp

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"reusetool/internal/ir"
	"reusetool/internal/trace"
)

// arrayState is the laid-out form of an ir.Array.
type arrayState struct {
	arr     *ir.Array
	base    uint64
	dims    []int64
	strides []int64 // bytes
	total   int64   // elements
	data    []int64 // non-nil for Data arrays
}

// TripStat records dynamic loop behaviour.
type TripStat struct {
	// Execs counts dynamic executions of the loop (scope entries).
	Execs uint64
	// Iters counts executed iterations summed over all executions.
	Iters uint64
}

// Avg returns iterations per execution (0 if never executed).
func (t TripStat) Avg() float64 {
	if t.Execs == 0 {
		return 0
	}
	return float64(t.Iters) / float64(t.Execs)
}

// loopState is one loop's record within a run: its trip statistics
// and, once the loop has been entered, its plan (nil when the loop is
// not a leaf).
type loopState struct {
	trips   TripStat
	plan    *loopPlan
	planned bool // plan has been built
}

// Machine is the execution state of one run.
type Machine struct {
	info    *ir.Info
	slots   []int64
	arrays  []arrayState
	handler trace.Handler
	loops   []loopState // indexed by loop scope ID

	accesses    uint64
	accessLimit uint64 // the access budget; MaxUint64 when unlimited
	callDepth   int

	// iterations counts loop iterations, which poll the context like
	// accesses do; planAccesses counts the accesses whose address came
	// from a plan (tests report it as the planned share).
	iterations   uint64
	planAccesses uint64

	// checked runs every loop on the walker; tests set it to use the
	// walker as the oracle for planned runs.
	checked bool

	// ctx/done support cooperative cancellation: the run polls done at
	// every loop entry, every interruptStride accesses and every
	// interruptStride loop iterations, so a canceled run stops within
	// one stride instead of running to completion. done is nil when the
	// run is not cancellable.
	ctx  context.Context
	done <-chan struct{}
}

// interruptStride is how many accesses, or loop iterations, may execute
// between two cancellation polls. A power of two so the check is a
// mask, not a division, on the per-access hot path.
const interruptStride = 1 << 12

// interrupted polls the run's context without blocking.
func (m *Machine) interrupted() error {
	select {
	case <-m.done:
		return fmt.Errorf("interp: %w", m.ctx.Err())
	default:
		return nil
	}
}

// countIteration counts one loop iteration toward the cancellation
// stride.
func (m *Machine) countIteration() error {
	m.iterations++
	if m.iterations&(interruptStride-1) == 0 {
		return m.checkpoint()
	}
	return nil
}

// countAccess charges one access against the access budget and the
// cancellation stride.
func (m *Machine) countAccess() error {
	m.accesses++
	if m.accesses > m.accessLimit || m.accesses&(interruptStride-1) == 0 {
		return m.checkpoint()
	}
	return nil
}

// checkpoint is the slow path of countIteration and countAccess, kept
// apart so that they inline: the budget check, and a poll of a
// cancellable run's context.
func (m *Machine) checkpoint() error {
	if m.accesses > m.accessLimit {
		return fmt.Errorf("interp: access budget of %d exceeded", m.accessLimit)
	}
	if m.done == nil {
		return nil
	}
	return m.interrupted()
}

// Option configures a run.
type Option func(*config)

type config struct {
	init        func(*Machine) error
	maxAccesses uint64
	checked     bool
}

// WithInit registers a callback invoked after array layout and parameter
// binding but before execution; workloads use it to fill index (Data)
// arrays.
func WithInit(f func(*Machine) error) Option {
	return func(c *config) { c.init = f }
}

// WithMaxAccesses aborts execution with an error once the program has
// performed more than n memory accesses — a guard against accidentally
// unbounded workload configurations.
func WithMaxAccesses(n uint64) Option {
	return func(c *config) { c.maxAccesses = n }
}

// Result summarizes a run.
type Result struct {
	// Accesses counts executed memory references (not block-expanded).
	Accesses uint64
	// Trips holds per-loop trip statistics keyed by loop scope ID.
	Trips map[trace.ScopeID]TripStat
	// Machine is the executed machine with its bound parameters and array
	// layout; downstream analyses (e.g. the static fragmentation pass)
	// read strides and base addresses from it instead of laying the
	// program out a second time.
	Machine *Machine
}

// AvgTrips returns the average trip count of the loop with the given
// scope, or def if the loop never executed.
func (r *Result) AvgTrips(s trace.ScopeID, def float64) float64 {
	if t, ok := r.Trips[s]; ok && t.Execs > 0 {
		return t.Avg()
	}
	return def
}

// Run executes info's program with the given parameter overrides, feeding
// events to h. It is the no-context convenience entry point; use
// RunContext to make execution interruptible.
//
//reuse:ctx-root
func Run(info *ir.Info, params map[string]int64, h trace.Handler, opts ...Option) (*Result, error) {
	return RunContext(context.Background(), info, params, h, opts...)
}

// RunContext is Run under a context: when ctx is canceled or its
// deadline passes, execution stops within one stride (interruptStride
// accesses or loop iterations) and the context's error is returned. A
// background context adds no per-access overhead.
func RunContext(ctx context.Context, info *ir.Info, params map[string]int64, h trace.Handler, opts ...Option) (*Result, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	m, err := newMachine(info, params)
	if err != nil {
		return nil, err
	}
	m.handler = h
	m.accessLimit = math.MaxUint64
	if cfg.maxAccesses > 0 {
		m.accessLimit = cfg.maxAccesses
	}
	m.checked = cfg.checked
	m.loops = make([]loopState, info.Scopes.Len())
	m.ctx = ctx
	m.done = ctx.Done()
	if err := m.layout(); err != nil {
		return nil, err
	}
	if cfg.init != nil {
		if err := cfg.init(m); err != nil {
			return nil, fmt.Errorf("interp: init: %w", err)
		}
	}
	if err := m.call(info.Prog.Main); err != nil {
		return nil, err
	}
	res := &Result{Accesses: m.accesses, Trips: map[trace.ScopeID]TripStat{}, Machine: m}
	for s := range m.loops {
		if t := m.loops[s].trips; t.Execs > 0 {
			res.Trips[trace.ScopeID(s)] = t
		}
	}
	return res, nil
}

// Layout binds parameters and lays out arrays without executing anything.
// The symbolic analysis uses it to obtain concrete dimension strides, and
// workload init code can be tested against it.
func Layout(info *ir.Info, params map[string]int64) (*Machine, error) {
	m, err := newMachine(info, params)
	if err != nil {
		return nil, err
	}
	if err := m.layout(); err != nil {
		return nil, err
	}
	return m, nil
}

// newMachine binds parameters (defaults first, then overrides) into a
// fresh machine.
func newMachine(info *ir.Info, params map[string]int64) (*Machine, error) {
	m := &Machine{
		info:  info,
		slots: make([]int64, info.NumSlots),
	}
	bound := map[string]int64{}
	for name, v := range info.Prog.Defaults {
		bound[name] = v
	}
	for name, v := range params {
		if _, ok := info.Prog.Defaults[name]; !ok {
			return nil, fmt.Errorf("interp: unknown parameter %q", name)
		}
		bound[name] = v
	}
	for name, v := range bound {
		slot := info.ParamSlot(name)
		if slot < 0 {
			return nil, fmt.Errorf("interp: parameter %q has no slot", name)
		}
		m.slots[slot] = v
	}
	return m, nil
}

// The first array starts at baseAddress; arrays are separated by
// arrayPad bytes before line alignment.
const (
	baseAddress = 1 << 20
	arrayPad    = 256
)

// layout resolves array extents and assigns base addresses. It refuses
// an array whose element count, byte size or end address does not fit:
// every address the run forms is then exact.
func (m *Machine) layout() error {
	m.arrays = make([]arrayState, len(m.info.Prog.Arrays))
	addr := uint64(baseAddress)
	for i, a := range m.info.Prog.Arrays {
		st := arrayState{arr: a}
		st.dims = make([]int64, a.Rank())
		st.strides = make([]int64, a.Rank())
		total := int64(1)
		stride := a.Elem
		for d, ext := range a.Dims {
			v, err := m.evalChecked(ext)
			if err != nil {
				return fmt.Errorf("interp: array %s dim %d: %w", a.Name, d, err)
			}
			if v <= 0 {
				return fmt.Errorf("interp: array %s dim %d: non-positive extent %d", a.Name, d, v)
			}
			st.dims[d] = v
			st.strides[d] = stride
			var ok bool
			if total, ok = mulExact(total, v); !ok {
				return fmt.Errorf("interp: array %s: element count overflows int64 at dim %d", a.Name, d)
			}
			if stride, ok = mulExact(stride, v); !ok {
				return fmt.Errorf("interp: array %s: byte size of %d elements overflows int64", a.Name, total)
			}
		}
		st.total = total
		// Align to 128-byte lines so layouts are reproducible.
		base, c1 := bits.Add64(addr, 127, 0)
		base &^= 127
		end, c2 := bits.Add64(base, uint64(stride)+arrayPad, 0)
		if c1|c2 != 0 {
			return fmt.Errorf("interp: array %s: end address overflows the address space", a.Name)
		}
		st.base, addr = base, end
		if a.Data {
			st.data = make([]int64, total)
		}
		m.arrays[i] = st
	}
	return nil
}

func (m *Machine) call(r *ir.Routine) error {
	m.callDepth++
	if m.callDepth > 100 {
		return fmt.Errorf("interp: call depth exceeds 100 (recursion?)")
	}
	m.handler.EnterScope(r.Scope())
	err := m.execBody(r.Body)
	m.handler.ExitScope(r.Scope())
	m.callDepth--
	return err
}

func (m *Machine) execBody(body []ir.Stmt) error {
	for _, s := range body {
		if err := m.exec(s); err != nil {
			return err
		}
	}
	return nil
}

func (m *Machine) exec(s ir.Stmt) error {
	switch st := s.(type) {
	case *ir.Loop:
		return m.loop(st)

	case *ir.Let:
		v, err := m.evalChecked(st.E)
		if err != nil {
			return err
		}
		m.slots[st.Var.Slot()] = v
		return nil

	case *ir.If:
		l, err := m.evalChecked(st.Cond.L)
		if err != nil {
			return err
		}
		r, err := m.evalChecked(st.Cond.R)
		if err != nil {
			return err
		}
		if st.Cond.Holds(l, r) {
			return m.execBody(st.Then)
		}
		return m.execBody(st.Else)

	case *ir.Access:
		for _, ref := range st.Refs {
			addr, err := m.address(ref)
			if err != nil {
				return err
			}
			if err := m.countAccess(); err != nil {
				return err
			}
			m.handler.Access(ref.ID(), addr, uint32(ref.Array.Elem), ref.Write)
		}
		return nil

	case *ir.Call:
		return m.call(st.Callee)
	}
	return fmt.Errorf("interp: unknown statement %T", s)
}

// loop runs one instance of l: its bounds, trip statistics, scope
// events and iterations.
func (m *Machine) loop(l *ir.Loop) error {
	lo, err := m.evalChecked(l.Lo)
	if err != nil {
		return err
	}
	hi, err := m.evalChecked(l.Hi)
	if err != nil {
		return err
	}
	step := int64(l.Step.(ir.Const))
	ls := &m.loops[l.Scope()]
	ls.trips.Execs++
	if m.done != nil {
		if err := m.interrupted(); err != nil {
			return err
		}
	}
	m.handler.EnterScope(l.Scope())
	if last, ok := lastIteration(lo, hi, step); ok {
		err = m.iterate(l, ls, lo, step, last)
	}
	m.handler.ExitScope(l.Scope())
	return err
}

// lastIteration returns the index of the last iteration of a loop
// from lo to hi by step (the trip count minus one), computed in
// unsigned arithmetic so that no bound wraps it; ok is false for a
// zero-trip loop.
func lastIteration(lo, hi, step int64) (last uint64, ok bool) {
	if step > 0 {
		if hi < lo {
			return 0, false
		}
		return (uint64(hi) - uint64(lo)) / uint64(step), true
	}
	if lo < hi {
		return 0, false
	}
	return (uint64(lo) - uint64(hi)) / (0 - uint64(step)), true
}

// iterate runs iterations 0..last of a loop instance: from its plan
// when the instance's entry check proves every affine reference in
// bounds, otherwise by walking the body.
func (m *Machine) iterate(l *ir.Loop, ls *loopState, lo, step int64, last uint64) error {
	slot := l.Var.Slot()
	if !m.checked {
		if !ls.planned {
			ls.plan, ls.planned = newPlan(m, l), true
		}
		if p := ls.plan; p != nil && p.enter(m, slot, lo, step, last) {
			return m.runPlan(p, ls, slot, lo, step, last)
		}
	}
	v := lo
	for k := uint64(0); ; k++ {
		m.slots[slot] = v
		ls.trips.Iters++
		if err := m.countIteration(); err != nil {
			return err
		}
		if err := m.execBody(l.Body); err != nil {
			return err
		}
		if k == last {
			return nil
		}
		v += step
	}
}

// address computes the byte address of a reference, bounds-checking
// every subscript.
func (m *Machine) address(ref *ir.Ref) (uint64, error) {
	st := &m.arrays[ref.Array.Pos()]
	var off int64
	for d, e := range ref.Index {
		v, err := m.evalChecked(e)
		if err != nil {
			return 0, fmt.Errorf("interp: %s: %w", ref.Name(), err)
		}
		if v < 0 || v >= st.dims[d] {
			return 0, fmt.Errorf("interp: %s: subscript %d out of bounds: %d not in [0,%d)", ref.Name(), d, v, st.dims[d])
		}
		off += v * st.strides[d]
	}
	return st.base + uint64(off), nil
}

// A fault is an evaluation failure: a zero divisor or a bad Load. eval
// returns one instead of panicking; evalChecked names the expression it
// happened in.
type fault struct{ msg string }

// evalChecked evaluates e, turning a fault into an error.
func (m *Machine) evalChecked(e ir.Expr) (int64, error) {
	v, f := m.eval(e)
	if f != nil {
		return 0, fmt.Errorf("eval %s: %s", e, f.msg)
	}
	return v, nil
}

func (m *Machine) eval(e ir.Expr) (int64, *fault) {
	switch x := e.(type) {
	case ir.Const:
		return int64(x), nil
	case *ir.Var:
		return m.slots[x.Slot()], nil
	case *ir.Bin:
		l, f := m.eval(x.L)
		if f != nil {
			return 0, f
		}
		r, f := m.eval(x.R)
		if f != nil {
			return 0, f
		}
		switch x.Op {
		case ir.OpAdd:
			return l + r, nil
		case ir.OpSub:
			return l - r, nil
		case ir.OpMul:
			return l * r, nil
		case ir.OpDiv:
			if r == 0 {
				return 0, &fault{"division by zero"}
			}
			return l / r, nil
		case ir.OpMod:
			if r == 0 {
				return 0, &fault{"modulo by zero"}
			}
			return l % r, nil
		case ir.OpMin:
			return min(l, r), nil
		case ir.OpMax:
			return max(l, r), nil
		}
		return 0, &fault{"unknown op"}
	case *ir.Load:
		st := &m.arrays[x.Array.Pos()]
		if st.data == nil {
			return 0, &fault{fmt.Sprintf("Load from non-data array %s", x.Array.Name)}
		}
		var flat, mult int64 = 0, 1
		for d, idxE := range x.Index {
			v, f := m.eval(idxE)
			if f != nil {
				return 0, f
			}
			if v < 0 || v >= st.dims[d] {
				return 0, &fault{fmt.Sprintf("Load %s: subscript %d out of bounds: %d", x.Array.Name, d, v)}
			}
			flat += v * mult
			mult *= st.dims[d]
		}
		return st.data[flat], nil
	}
	return 0, &fault{fmt.Sprintf("unknown expression %T", e)}
}

// mulExact returns a*b and whether it fits in an int64.
func mulExact(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	if (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) || c/b != a {
		return 0, false
	}
	return c, true
}

// addExact returns a+b and whether it fits in an int64.
func addExact(a, b int64) (int64, bool) {
	c := a + b
	return c, (c > a) == (b > 0)
}

// Param returns the bound value of a parameter during init.
func (m *Machine) Param(name string) int64 {
	slot := m.info.ParamSlot(name)
	if slot < 0 {
		panic(fmt.Sprintf("interp: unknown parameter %q", name))
	}
	return m.slots[slot]
}

// ArrayLen reports the total element count of a laid-out array.
func (m *Machine) ArrayLen(a *ir.Array) int64 { return m.arrays[a.Pos()].total }

// DataFootprint reports the number of bytes spanned by the laid-out arrays
// (from the lowest base address to the highest end address, including any
// inter-array padding). Analysis engines use it to presize structures that
// scale with the number of distinct memory blocks.
func (m *Machine) DataFootprint() uint64 {
	var lo, hi uint64
	for i := range m.arrays {
		st := &m.arrays[i]
		end := st.base + uint64(st.total)*uint64(m.info.Prog.Arrays[i].Elem)
		if i == 0 || st.base < lo {
			lo = st.base
		}
		if end > hi {
			hi = end
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// SetData stores v at flat element index i of a Data array (column-major
// flattening: first subscript fastest).
func (m *Machine) SetData(a *ir.Array, i int64, v int64) {
	st := &m.arrays[a.Pos()]
	if st.data == nil {
		panic(fmt.Sprintf("interp: SetData on non-data array %s", a.Name))
	}
	st.data[i] = v
}

// FillData initializes every element of a Data array from f(flatIndex).
func (m *Machine) FillData(a *ir.Array, f func(i int64) int64) {
	st := &m.arrays[a.Pos()]
	if st.data == nil {
		panic(fmt.Sprintf("interp: FillData on non-data array %s", a.Name))
	}
	for i := range st.data {
		st.data[i] = f(int64(i))
	}
}

// ArrayBase reports the base address assigned to a (for tests).
func (m *Machine) ArrayBase(a *ir.Array) uint64 { return m.arrays[a.Pos()].base }

// ArrayStride reports the byte stride of dimension d of a (for tests and
// the symbolic analysis cross-checks).
func (m *Machine) ArrayStride(a *ir.Array, d int) int64 { return m.arrays[a.Pos()].strides[d] }
