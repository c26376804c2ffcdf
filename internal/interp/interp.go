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
package interp

import (
	"context"
	"fmt"

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

// Machine is the execution state of one run.
type Machine struct {
	info    *ir.Info
	slots   []int64
	arrays  []arrayState
	handler trace.Handler
	trips   map[trace.ScopeID]*TripStat

	accesses    uint64
	maxAccesses uint64
	maxDepth    int
	callDepth   int

	// ctx/done support cooperative cancellation: the step loop polls done
	// every interruptStride accesses and at every loop entry, so a
	// canceled run stops within one batch instead of running to
	// completion. done is nil when the run is not cancellable.
	ctx  context.Context
	done <-chan struct{}
}

// interruptStride is how many accesses may execute between two
// cancellation polls. A power of two so the check is a mask, not a
// division, on the per-access hot path.
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

// Option configures a run.
type Option func(*config)

type config struct {
	init        func(*Machine) error
	maxAccesses uint64
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
// deadline passes, execution stops within one access batch
// (interruptStride accesses) and the context's error is returned. A
// background context adds no per-access overhead beyond one nil check.
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
	m.maxAccesses = cfg.maxAccesses
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
	for s, t := range m.trips {
		res.Trips[s] = *t
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
		trips: map[trace.ScopeID]*TripStat{},
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

// layout resolves array extents and assigns base addresses.
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
			stride *= v
			total *= v
		}
		st.total = total
		// Align to 128-byte lines so layouts are reproducible.
		addr = (addr + 127) &^ 127
		st.base = addr
		addr += uint64(total)*uint64(a.Elem) + arrayPad
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
		lo, err := m.evalChecked(st.Lo)
		if err != nil {
			return err
		}
		hi, err := m.evalChecked(st.Hi)
		if err != nil {
			return err
		}
		step := int64(st.Step.(ir.Const))
		ts := m.trips[st.Scope()]
		if ts == nil {
			ts = &TripStat{}
			m.trips[st.Scope()] = ts
		}
		ts.Execs++
		if m.done != nil {
			if err := m.interrupted(); err != nil {
				return err
			}
		}
		m.handler.EnterScope(st.Scope())
		slot := st.Var.Slot()
		for v := lo; (step > 0 && v <= hi) || (step < 0 && v >= hi); v += step {
			m.slots[slot] = v
			ts.Iters++
			if err := m.execBody(st.Body); err != nil {
				m.handler.ExitScope(st.Scope())
				return err
			}
		}
		m.handler.ExitScope(st.Scope())
		return nil

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
			addr, err := m.address(ref.Array, ref.Index)
			if err != nil {
				return fmt.Errorf("interp: %s: %w", ref.Name(), err)
			}
			m.accesses++
			if m.maxAccesses > 0 && m.accesses > m.maxAccesses {
				return fmt.Errorf("interp: access budget of %d exceeded", m.maxAccesses)
			}
			if m.done != nil && m.accesses&(interruptStride-1) == 0 {
				if err := m.interrupted(); err != nil {
					return err
				}
			}
			m.handler.Access(ref.ID(), addr, uint32(ref.Array.Elem), ref.Write)
		}
		return nil

	case *ir.Call:
		return m.call(st.Callee)
	}
	return fmt.Errorf("interp: unknown statement %T", s)
}

// address computes the byte address of an array element, bounds-checking
// every subscript.
func (m *Machine) address(a *ir.Array, index []ir.Expr) (uint64, error) {
	st := &m.arrays[a.Pos()]
	var off int64
	for d, e := range index {
		v, err := m.evalChecked(e)
		if err != nil {
			return 0, err
		}
		if v < 0 || v >= st.dims[d] {
			return 0, fmt.Errorf("subscript %d out of bounds: %d not in [0,%d)", d, v, st.dims[d])
		}
		off += v * st.strides[d]
	}
	return st.base + uint64(off), nil
}

func (m *Machine) evalChecked(e ir.Expr) (v int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("eval %s: %v", e, r)
		}
	}()
	return m.eval(e), nil
}

func (m *Machine) eval(e ir.Expr) int64 {
	switch x := e.(type) {
	case ir.Const:
		return int64(x)
	case *ir.Var:
		return m.slots[x.Slot()]
	case *ir.Bin:
		l, r := m.eval(x.L), m.eval(x.R)
		switch x.Op {
		case ir.OpAdd:
			return l + r
		case ir.OpSub:
			return l - r
		case ir.OpMul:
			return l * r
		case ir.OpDiv:
			if r == 0 {
				panic("division by zero")
			}
			return l / r
		case ir.OpMod:
			if r == 0 {
				panic("modulo by zero")
			}
			return l % r
		case ir.OpMin:
			if l < r {
				return l
			}
			return r
		case ir.OpMax:
			if l > r {
				return l
			}
			return r
		}
		panic("unknown op")
	case *ir.Load:
		st := &m.arrays[x.Array.Pos()]
		if st.data == nil {
			panic(fmt.Sprintf("Load from non-data array %s", x.Array.Name))
		}
		var flat, mult int64 = 0, 1
		for d, idxE := range x.Index {
			v := m.eval(idxE)
			if v < 0 || v >= st.dims[d] {
				panic(fmt.Sprintf("Load %s: subscript %d out of bounds: %d", x.Array.Name, d, v))
			}
			flat += v * mult
			mult *= st.dims[d]
		}
		return st.data[flat]
	}
	panic(fmt.Sprintf("unknown expression %T", e))
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
