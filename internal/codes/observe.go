package codes

import (
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
)

// Observe decorates code so that every call records a span in reg. The
// span names are <prefix>.encode, .decode, .update and .correct, where
// the prefix is the code's Name() up to its parameter list (liberation,
// rsm, crs, ...). Each span carries the latency, the exact core.Ops
// counts of the call, and the size that normalizes them:
//
//	encode   bytes DataSize()   units M()·W()          parity elements written
//	decode   bytes DataSize()   units len(erased)·W()  elements recovered
//	update   bytes ElemSize     units                  parity elements touched
//	correct  bytes DataSize()
//
// so an encode span's xors-per-unit is the paper's XORs per parity
// element (lower bound k-1), and a decode span's is XORs per recovered
// element. Work the bare code does inside one call (a decode that
// re-encodes) is billed to that call's span alone.
//
// The decorated code answers core.Updater, core.ColumnCorrector and
// Prime exactly as code does. A nil registry returns code itself, so
// untraced runs execute the bare code.
func Observe(code core.Code, reg *obs.Registry) core.Code {
	if reg == nil {
		return code
	}
	prefix := code.Name()
	if i := strings.IndexByte(prefix, '('); i >= 0 {
		prefix = prefix[:i]
	}
	o := &observed{Code: code, reg: reg,
		encodeName: prefix + ".encode", decodeName: prefix + ".decode",
		updateName: prefix + ".update", correctName: prefix + ".correct"}

	// The wrapper type is picked from the capability set, one type per
	// combination a registered family has, so a type assertion on the
	// wrapper succeeds exactly when it does on the bare code.
	u, _ := code.(core.Updater)
	cc, _ := code.(core.ColumnCorrector)
	p, primed := Prime(code)
	switch {
	case u != nil && cc != nil && primed: // liberation
		return &observedUCP{o, updater{o, u}, corrector{o, cc}, prime(p)}
	case u != nil && cc == nil && primed: // rdp, evenodd
		return &observedUP{o, updater{o, u}, prime(p)}
	case u != nil && cc == nil && !primed: // rs3
		return &observedU{o, updater{o, u}}
	case u == nil && cc == nil && !primed: // liberation-original, crs, rs
		return o
	}
	// No wrapper answers this mix exactly; an undecorated code is better
	// than one that hides or invents a capability. The registry-wide
	// decorator test fails for any registered family that lands here.
	return code
}

// observed is the decorator core: Encode and Decode spans around the
// bare code, which answers everything else.
type observed struct {
	core.Code
	reg *obs.Registry
	// The span names, built once so a call concatenates nothing.
	encodeName, decodeName, updateName, correctName string
}

type (
	observedUCP struct {
		*observed
		updater
		corrector
		prime
	}
	observedUP struct {
		*observed
		updater
		prime
	}
	observedU struct {
		*observed
		updater
	}
)

// span runs fn with a private Ops, merges the counts into ops, and
// records them under name with the given bytes and the units fn reports.
func (o *observed) span(name string, bytes int, ops *core.Ops, fn func(*core.Ops) (units int, err error)) error {
	sp := obs.StartSpan(o.reg, name)
	var local core.Ops
	units, err := fn(&local)
	ops.Add(local)
	sp.Bytes(bytes).Units(units).Ops(local).End(err)
	return err
}

func (o *observed) Encode(s *core.Stripe, ops *core.Ops) error {
	return o.span(o.encodeName, s.DataSize(), ops, func(l *core.Ops) (int, error) {
		return o.M() * o.W(), o.Code.Encode(s, l)
	})
}

func (o *observed) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	return o.span(o.decodeName, s.DataSize(), ops, func(l *core.Ops) (int, error) {
		return len(erased) * o.W(), o.Code.Decode(s, erased, l)
	})
}

type updater struct {
	o *observed
	u core.Updater
}

func (m updater) Update(s *core.Stripe, col, row int, oldElem []byte, ops *core.Ops) (int, error) {
	var touched int
	err := m.o.span(m.o.updateName, s.ElemSize, ops, func(l *core.Ops) (int, error) {
		var err error
		touched, err = m.u.Update(s, col, row, oldElem, l)
		return touched, err
	})
	return touched, err
}

type corrector struct {
	o  *observed
	cc core.ColumnCorrector
}

func (m corrector) CorrectColumn(s *core.Stripe, ops *core.Ops) (int, error) {
	var col int
	err := m.o.span(m.o.correctName, s.DataSize(), ops, func(l *core.Ops) (int, error) {
		var err error
		col, err = m.cc.CorrectColumn(s, l)
		return 0, err
	})
	return col, err
}

type prime int

func (p prime) P() int { return int(p) }
