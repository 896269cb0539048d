package minicc

import "fmt"

// Memory is the machine's view of the (simulated) memory hierarchy. In the
// DStress framework it is implemented by the memory controller, so every
// pointer and array access of a virus becomes a cache/DRAM access.
type Memory interface {
	ReadWord(addr int64) uint64
	WriteWord(addr int64, v uint64)
}

// Region is the address range a virus may use — its allocation on the
// target MCU.
type Region struct {
	Base int64
	Size int64
}

// Contains reports whether an 8-byte word at addr lies inside the region.
func (r Region) Contains(addr int64) bool {
	return addr >= r.Base && addr+8 <= r.Base+r.Size
}

// Value is a runtime value: a 64-bit integer, optionally unsigned,
// optionally a pointer to a 64-bit element.
type Value struct {
	U        uint64
	Unsigned bool
	IsPtr    bool
}

// Int builds a signed integer value.
func Int(v int64) Value { return Value{U: uint64(v)} }

// Uint builds an unsigned integer value.
func Uint(v uint64) Value { return Value{U: v, Unsigned: true} }

// Bool reports C truthiness.
func (v Value) Bool() bool { return v.U != 0 }

type cell struct {
	val Value
}

// Machine executes parsed programs.
type Machine struct {
	mem    Memory
	region Region
	brk    int64

	scopes []map[string]*cell

	steps     uint64
	maxSteps  uint64
	budgetHit bool
}

// NewMachineWithHeap builds a machine over mem, restricted to region, with
// an execution budget in abstract steps (one step per statement or loop
// iteration). A virus body that loops forever — as stress kernels do — is
// stopped cleanly when the budget runs out; Stopped() reports it. Global
// arrays and malloc allocations are placed from heapStart upward, leaving
// [region.Base, heapStart) untouched. The DStress runner uses this to keep
// a virus's bookkeeping arrays out of the chunk-aligned test region its
// body addresses directly; heapStart = region.Base puts the heap at the
// region's start.
func NewMachineWithHeap(mem Memory, region Region, heapStart int64,
	maxSteps uint64) (*Machine, error) {
	if mem == nil {
		return nil, fmt.Errorf("minicc: nil memory")
	}
	if region.Size <= 0 || region.Base < 0 || region.Base%8 != 0 {
		return nil, fmt.Errorf("minicc: bad region %+v", region)
	}
	if heapStart < region.Base || heapStart >= region.Base+region.Size ||
		heapStart%8 != 0 {
		return nil, fmt.Errorf("minicc: heap start %#x outside region %+v",
			heapStart, region)
	}
	if maxSteps == 0 {
		return nil, fmt.Errorf("minicc: zero step budget")
	}
	return &Machine{
		mem:      mem,
		region:   region,
		brk:      heapStart,
		scopes:   []map[string]*cell{make(map[string]*cell)},
		maxSteps: maxSteps,
	}, nil
}

// Stopped reports whether the last execution ended because the step budget
// was exhausted (the normal end of a stress virus) rather than by falling
// off the end of the body.
func (m *Machine) Stopped() bool { return m.budgetHit }

// Steps returns the steps consumed so far.
func (m *Machine) Steps() uint64 { return m.steps }

// Alloc carves n bytes (8-aligned) out of the region; the machine's malloc.
func (m *Machine) Alloc(n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("minicc: negative allocation")
	}
	n = (n + 7) &^ 7
	if m.brk+n > m.region.Base+m.region.Size {
		return 0, fmt.Errorf("minicc: out of virus memory (%d bytes requested, %d free)",
			n, m.region.Base+m.region.Size-m.brk)
	}
	addr := m.brk
	m.brk += n
	return addr, nil
}

// Lookup returns the value of a variable for inspection after a run.
func (m *Machine) Lookup(name string) (Value, bool) {
	for i := len(m.scopes) - 1; i >= 0; i-- {
		if c, ok := m.scopes[i][name]; ok {
			return c.val, true
		}
	}
	return Value{}, false
}

func (m *Machine) resolve(name string) *cell {
	for i := len(m.scopes) - 1; i >= 0; i-- {
		if c, ok := m.scopes[i][name]; ok {
			return c
		}
	}
	return nil
}

func (m *Machine) declare(pos Pos, name string, v Value) error {
	scope := m.scopes[len(m.scopes)-1]
	if _, dup := scope[name]; dup {
		return errf(pos, "redeclaration of %q", name)
	}
	scope[name] = &cell{val: v}
	return nil
}

func (m *Machine) pushScope() { m.scopes = append(m.scopes, make(map[string]*cell)) }
func (m *Machine) popScope()  { m.scopes = m.scopes[:len(m.scopes)-1] }

// Run declares the globals and locals, then executes the body. The locals
// live in a fresh scope that remains on the machine afterwards, so callers
// can inspect final variable values with Lookup (and re-Run additional body
// fragments against the same state).
func (m *Machine) Run(globals, locals, body []Stmt) error {
	m.budgetHit = false
	for _, s := range globals {
		if _, err := m.execStmt(s); err != nil {
			return err
		}
	}
	m.pushScope()
	for _, s := range locals {
		if _, err := m.execStmt(s); err != nil {
			return err
		}
	}
	for _, s := range body {
		ctl, err := m.execStmt(s)
		if err != nil {
			return err
		}
		if ctl == ctlStop || ctl == ctlReturn {
			break
		}
		if ctl != ctlNone {
			return errf(s.stmtPos(), "break/continue outside a loop")
		}
	}
	return nil
}

// control-flow outcomes of statement execution.
const (
	ctlNone = iota
	ctlBreak
	ctlContinue
	ctlReturn
	ctlStop // step budget exhausted
)

func (m *Machine) step() bool {
	m.steps++
	if m.steps > m.maxSteps {
		m.budgetHit = true
		return false
	}
	return true
}

func (m *Machine) execStmt(s Stmt) (int, error) {
	if !m.step() {
		return ctlStop, nil
	}
	switch st := s.(type) {
	case *DeclStmt:
		return ctlNone, m.execDecl(st)
	case *ExprStmt:
		_, err := m.eval(st.E)
		return ctlNone, err
	case *EmptyStmt:
		return ctlNone, nil
	case *Block:
		m.pushScope()
		defer m.popScope()
		for _, inner := range st.Stmts {
			ctl, err := m.execStmt(inner)
			if err != nil || ctl != ctlNone {
				return ctl, err
			}
		}
		return ctlNone, nil
	case *If:
		cond, err := m.eval(st.Cond)
		if err != nil {
			return ctlNone, err
		}
		if cond.Bool() {
			return m.execStmt(st.Then)
		}
		if st.Else != nil {
			return m.execStmt(st.Else)
		}
		return ctlNone, nil
	case *For:
		m.pushScope()
		defer m.popScope()
		if st.Init != nil {
			if ctl, err := m.execStmt(st.Init); err != nil || ctl == ctlStop {
				return ctl, err
			}
		}
		for {
			if !m.step() {
				return ctlStop, nil
			}
			if st.Cond != nil {
				c, err := m.eval(st.Cond)
				if err != nil {
					return ctlNone, err
				}
				if !c.Bool() {
					return ctlNone, nil
				}
			}
			ctl, err := m.execStmt(st.Body)
			if err != nil {
				return ctlNone, err
			}
			switch ctl {
			case ctlBreak:
				return ctlNone, nil
			case ctlReturn, ctlStop:
				return ctl, nil
			}
			if st.Post != nil {
				if _, err := m.eval(st.Post); err != nil {
					return ctlNone, err
				}
			}
		}
	case *While:
		for {
			if !m.step() {
				return ctlStop, nil
			}
			c, err := m.eval(st.Cond)
			if err != nil {
				return ctlNone, err
			}
			if !c.Bool() {
				return ctlNone, nil
			}
			ctl, err := m.execStmt(st.Body)
			if err != nil {
				return ctlNone, err
			}
			switch ctl {
			case ctlBreak:
				return ctlNone, nil
			case ctlReturn, ctlStop:
				return ctl, nil
			}
		}
	case *DoWhile:
		for {
			if !m.step() {
				return ctlStop, nil
			}
			ctl, err := m.execStmt(st.Body)
			if err != nil {
				return ctlNone, err
			}
			switch ctl {
			case ctlBreak:
				return ctlNone, nil
			case ctlReturn, ctlStop:
				return ctl, nil
			}
			c, err := m.eval(st.Cond)
			if err != nil {
				return ctlNone, err
			}
			if !c.Bool() {
				return ctlNone, nil
			}
		}
	case *Break:
		return ctlBreak, nil
	case *Continue:
		return ctlContinue, nil
	case *Return:
		if st.E != nil {
			if _, err := m.eval(st.E); err != nil {
				return ctlNone, err
			}
		}
		return ctlReturn, nil
	default:
		return ctlNone, errf(s.stmtPos(), "unsupported statement %T", s)
	}
}

func (m *Machine) execDecl(st *DeclStmt) error {
	for _, d := range st.Decls {
		switch {
		case d.IsArray:
			size := int64(len(d.InitList))
			if d.ArrSize != nil {
				v, err := m.eval(d.ArrSize)
				if err != nil {
					return err
				}
				size = int64(v.U)
			}
			if size <= 0 {
				return errf(st.Pos, "array %q has size %d", d.Name, size)
			}
			if int64(len(d.InitList)) > size {
				return errf(st.Pos, "too many initializers for %q", d.Name)
			}
			base, err := m.Alloc(size * 8)
			if err != nil {
				return errf(st.Pos, "%v", err)
			}
			for i := int64(0); i < size; i++ {
				var w uint64
				if i < int64(len(d.InitList)) {
					v, err := m.eval(d.InitList[i])
					if err != nil {
						return err
					}
					w = v.U
				}
				m.mem.WriteWord(base+i*8, w)
			}
			if err := m.declare(st.Pos, d.Name,
				Value{U: uint64(base), Unsigned: true, IsPtr: true}); err != nil {
				return err
			}
		default:
			v := Value{Unsigned: st.Base.Unsigned, IsPtr: d.Ptr || st.Base.Ptr}
			if d.Init != nil {
				iv, err := m.eval(d.Init)
				if err != nil {
					return err
				}
				v.U = iv.U
			}
			if err := m.declare(st.Pos, d.Name, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// lvalue is an assignable location: a variable cell or a memory word.
type lvalue struct {
	cell *cell
	addr int64
}

func (m *Machine) load(lv lvalue) Value {
	if lv.cell != nil {
		return lv.cell.val
	}
	return Value{U: m.mem.ReadWord(lv.addr), Unsigned: true}
}

func (m *Machine) store(pos Pos, lv lvalue, v Value) error {
	if lv.cell != nil {
		// Preserve the declared type; only the bits change.
		lv.cell.val.U = v.U
		if v.IsPtr {
			lv.cell.val.IsPtr = true
		}
		return nil
	}
	if !m.region.Contains(lv.addr) {
		return errf(pos, "store outside virus region at %#x", lv.addr)
	}
	m.mem.WriteWord(lv.addr, v.U)
	return nil
}

func (m *Machine) evalLValue(e Expr) (lvalue, error) {
	switch ex := e.(type) {
	case *Ident:
		c := m.resolve(ex.Name)
		if c == nil {
			return lvalue{}, errf(ex.Pos, "undefined variable %q", ex.Name)
		}
		return lvalue{cell: c}, nil
	case *Index:
		base, err := m.eval(ex.X)
		if err != nil {
			return lvalue{}, err
		}
		if !base.IsPtr {
			return lvalue{}, errf(ex.Pos, "indexing a non-pointer")
		}
		idx, err := m.eval(ex.Idx)
		if err != nil {
			return lvalue{}, err
		}
		addr := int64(base.U) + int64(idx.U)*8
		if err := m.checkAddr(ex.Pos, addr); err != nil {
			return lvalue{}, err
		}
		return lvalue{addr: addr}, nil
	case *Unary:
		if ex.Op == "*" {
			p, err := m.eval(ex.X)
			if err != nil {
				return lvalue{}, err
			}
			if !p.IsPtr {
				return lvalue{}, errf(ex.Pos, "dereferencing a non-pointer")
			}
			addr := int64(p.U)
			if err := m.checkAddr(ex.Pos, addr); err != nil {
				return lvalue{}, err
			}
			return lvalue{addr: addr}, nil
		}
	case *Cast:
		return m.evalLValue(ex.X)
	}
	return lvalue{}, errf(e.exprPos(), "expression is not assignable")
}

func (m *Machine) checkAddr(pos Pos, addr int64) error {
	if addr%8 != 0 {
		return errf(pos, "unaligned access at %#x", addr)
	}
	if !m.region.Contains(addr) {
		return errf(pos, "access outside virus region at %#x", addr)
	}
	return nil
}

func (m *Machine) eval(e Expr) (Value, error) {
	switch ex := e.(type) {
	case *NumLit:
		return Value{U: ex.Val, Unsigned: ex.Val > 1<<62}, nil
	case *Ident:
		c := m.resolve(ex.Name)
		if c == nil {
			return Value{}, errf(ex.Pos, "undefined variable %q", ex.Name)
		}
		return c.val, nil
	case *Sizeof:
		return Uint(8), nil
	case *Cast:
		v, err := m.eval(ex.X)
		if err != nil {
			return Value{}, err
		}
		v.Unsigned = ex.To.Unsigned || ex.To.Ptr
		v.IsPtr = ex.To.Ptr
		return v, nil
	case *Ternary:
		c, err := m.eval(ex.Cond)
		if err != nil {
			return Value{}, err
		}
		if c.Bool() {
			return m.eval(ex.A)
		}
		return m.eval(ex.B)
	case *Call:
		return m.evalCall(ex)
	case *Index, *Unary:
		if u, ok := ex.(*Unary); ok && u.Op != "*" && u.Op != "++" && u.Op != "--" {
			return m.evalUnary(u)
		}
		if u, ok := ex.(*Unary); ok && (u.Op == "++" || u.Op == "--") {
			lv, err := m.evalLValue(u.X)
			if err != nil {
				return Value{}, err
			}
			v := m.load(lv)
			nv := m.incDec(v, u.Op == "++")
			if err := m.store(u.Pos, lv, nv); err != nil {
				return Value{}, err
			}
			return nv, nil
		}
		lv, err := m.evalLValue(ex)
		if err != nil {
			return Value{}, err
		}
		return m.load(lv), nil
	case *Postfix:
		lv, err := m.evalLValue(ex.X)
		if err != nil {
			return Value{}, err
		}
		v := m.load(lv)
		if err := m.store(ex.Pos, lv, m.incDec(v, ex.Op == "++")); err != nil {
			return Value{}, err
		}
		return v, nil
	case *Assign:
		return m.evalAssign(ex)
	case *Binary:
		return m.evalBinary(ex)
	default:
		return Value{}, errf(e.exprPos(), "unsupported expression %T", e)
	}
}

// incDec applies ++/-- with pointer scaling.
func (m *Machine) incDec(v Value, inc bool) Value {
	delta := uint64(1)
	if v.IsPtr {
		delta = 8
	}
	if inc {
		v.U += delta
	} else {
		v.U -= delta
	}
	return v
}

func (m *Machine) evalCall(c *Call) (Value, error) {
	switch c.Name {
	case "malloc", "calloc":
		if len(c.Args) == 0 || len(c.Args) > 2 {
			return Value{}, errf(c.Pos, "%s expects 1 or 2 arguments", c.Name)
		}
		n := int64(1)
		for _, a := range c.Args {
			v, err := m.eval(a)
			if err != nil {
				return Value{}, err
			}
			n *= int64(v.U)
		}
		addr, err := m.Alloc(n)
		if err != nil {
			return Value{}, errf(c.Pos, "%v", err)
		}
		if c.Name == "calloc" {
			for a := addr; a < addr+((n+7)&^7); a += 8 {
				m.mem.WriteWord(a, 0)
			}
		}
		return Value{U: uint64(addr), Unsigned: true, IsPtr: true}, nil
	case "free":
		// The bump allocator does not reclaim; free is accepted and ignored.
		for _, a := range c.Args {
			if _, err := m.eval(a); err != nil {
				return Value{}, err
			}
		}
		return Value{}, nil
	default:
		return Value{}, errf(c.Pos, "unknown function %q", c.Name)
	}
}

func (m *Machine) evalUnary(u *Unary) (Value, error) {
	v, err := m.eval(u.X)
	if err != nil {
		return Value{}, err
	}
	switch u.Op {
	case "-":
		return Value{U: -v.U, Unsigned: v.Unsigned}, nil
	case "~":
		return Value{U: ^v.U, Unsigned: v.Unsigned}, nil
	case "!":
		if v.Bool() {
			return Int(0), nil
		}
		return Int(1), nil
	}
	return Value{}, errf(u.Pos, "unsupported unary %q", u.Op)
}

func (m *Machine) evalAssign(a *Assign) (Value, error) {
	lv, err := m.evalLValue(a.L)
	if err != nil {
		return Value{}, err
	}
	rhs, err := m.eval(a.R)
	if err != nil {
		return Value{}, err
	}
	if a.Op != "=" {
		cur := m.load(lv)
		op := a.Op[:len(a.Op)-1] // strip '='
		rhs, err = apply(a.Pos, op, cur, rhs)
		if err != nil {
			return Value{}, err
		}
	}
	if err := m.store(a.Pos, lv, rhs); err != nil {
		return Value{}, err
	}
	return rhs, nil
}

func (m *Machine) evalBinary(b *Binary) (Value, error) {
	// Short-circuit logical operators.
	if b.Op == "&&" || b.Op == "||" {
		l, err := m.eval(b.L)
		if err != nil {
			return Value{}, err
		}
		if b.Op == "&&" && !l.Bool() {
			return Int(0), nil
		}
		if b.Op == "||" && l.Bool() {
			return Int(1), nil
		}
		r, err := m.eval(b.R)
		if err != nil {
			return Value{}, err
		}
		if r.Bool() {
			return Int(1), nil
		}
		return Int(0), nil
	}
	l, err := m.eval(b.L)
	if err != nil {
		return Value{}, err
	}
	r, err := m.eval(b.R)
	if err != nil {
		return Value{}, err
	}
	return apply(b.Pos, b.Op, l, r)
}

// apply implements the binary operators with C-like usual arithmetic
// conversions: the operation is unsigned if either operand is unsigned or
// a pointer; pointer ± integer scales by the 8-byte element size.
func apply(pos Pos, op string, l, r Value) (Value, error) {
	// Pointer arithmetic.
	if l.IsPtr || r.IsPtr {
		switch op {
		case "+":
			if l.IsPtr && !r.IsPtr {
				return Value{U: l.U + 8*r.U, Unsigned: true, IsPtr: true}, nil
			}
			if r.IsPtr && !l.IsPtr {
				return Value{U: r.U + 8*l.U, Unsigned: true, IsPtr: true}, nil
			}
			return Value{}, errf(pos, "pointer + pointer")
		case "-":
			if l.IsPtr && r.IsPtr {
				return Int(int64(l.U-r.U) / 8), nil
			}
			if l.IsPtr {
				return Value{U: l.U - 8*r.U, Unsigned: true, IsPtr: true}, nil
			}
			return Value{}, errf(pos, "integer - pointer")
		case "==", "!=", "<", "<=", ">", ">=":
			// fall through to unsigned comparison below
		default:
			return Value{}, errf(pos, "invalid pointer operation %q", op)
		}
	}
	unsigned := l.Unsigned || r.Unsigned || l.IsPtr || r.IsPtr
	boolVal := func(b bool) (Value, error) {
		if b {
			return Int(1), nil
		}
		return Int(0), nil
	}
	switch op {
	case "+":
		return Value{U: l.U + r.U, Unsigned: unsigned}, nil
	case "-":
		return Value{U: l.U - r.U, Unsigned: unsigned}, nil
	case "*":
		return Value{U: l.U * r.U, Unsigned: unsigned}, nil
	case "/":
		if r.U == 0 {
			return Value{}, errf(pos, "division by zero")
		}
		if unsigned {
			return Value{U: l.U / r.U, Unsigned: true}, nil
		}
		return Int(int64(l.U) / int64(r.U)), nil
	case "%":
		if r.U == 0 {
			return Value{}, errf(pos, "modulo by zero")
		}
		if unsigned {
			return Value{U: l.U % r.U, Unsigned: true}, nil
		}
		return Int(int64(l.U) % int64(r.U)), nil
	case "&":
		return Value{U: l.U & r.U, Unsigned: unsigned}, nil
	case "|":
		return Value{U: l.U | r.U, Unsigned: unsigned}, nil
	case "^":
		return Value{U: l.U ^ r.U, Unsigned: unsigned}, nil
	case "<<":
		return Value{U: l.U << (r.U & 63), Unsigned: l.Unsigned}, nil
	case ">>":
		if l.Unsigned {
			return Value{U: l.U >> (r.U & 63), Unsigned: true}, nil
		}
		return Int(int64(l.U) >> (r.U & 63)), nil
	case "==":
		return boolVal(l.U == r.U)
	case "!=":
		return boolVal(l.U != r.U)
	case "<":
		if unsigned {
			return boolVal(l.U < r.U)
		}
		return boolVal(int64(l.U) < int64(r.U))
	case "<=":
		if unsigned {
			return boolVal(l.U <= r.U)
		}
		return boolVal(int64(l.U) <= int64(r.U))
	case ">":
		if unsigned {
			return boolVal(l.U > r.U)
		}
		return boolVal(int64(l.U) > int64(r.U))
	case ">=":
		if unsigned {
			return boolVal(l.U >= r.U)
		}
		return boolVal(int64(l.U) >= int64(r.U))
	default:
		return Value{}, errf(pos, "unsupported operator %q", op)
	}
}
