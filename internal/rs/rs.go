// Package rs implements the conventional Reed-Solomon P+Q RAID-6 scheme
// over GF(2^8) — the Linux-RAID-6 style baseline the paper's introduction
// contrasts the XOR-based array codes with. Each strip is a single element
// (W = 1):
//
//	P = XOR_j D_j
//	Q = XOR_j g^j * D_j        (g = 2, the field generator)
//
// Unlike the array codes it tolerates any two erasures with k up to 255,
// at the cost of finite-field multiplications on the Q path.
package rs

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gf"
)

// Code is a Reed-Solomon P+Q RAID-6 instance with k data strips.
type Code struct {
	k int
}

// New returns the RS P+Q code for k data strips (1 <= k <= 255).
func New(k int) (*Code, error) {
	if k < 1 || k > 255 {
		return nil, fmt.Errorf("%w: need 1 <= k <= 255, got k=%d", core.ErrParams, k)
	}
	return &Code{k: k}, nil
}

func (c *Code) Name() string { return fmt.Sprintf("rs(k=%d)", c.k) }
func (c *Code) K() int       { return c.k }

// M returns 2: the classic P+Q code has two parities (see NewM for the
// generalized multi-parity construction).
func (c *Code) M() int { return 2 }

// W returns 1: RS strips are single elements.
func (c *Code) W() int { return 1 }

// Encode computes P and Q. Q uses the Horner scheme
// Q = ((D_{k-1} * g + D_{k-2}) * g + ...) so that the hot loop is one
// doubling plus one XOR per data strip, as in the Linux implementation.
func (c *Code) Encode(s *core.Stripe, ops *core.Ops) error {
	if err := s.CheckShape(c.k, 2, 1); err != nil {
		return err
	}
	k := c.k
	pe, qe := s.Strips[k], s.Strips[k+1]
	ops.Copy(pe, s.Strips[k-1])
	ops.Copy(qe, s.Strips[k-1])
	for j := k - 2; j >= 0; j-- {
		ops.XorInto(pe, s.Strips[j])
		gf.Mul2Slice(qe, qe)
		ops.XorInto(qe, s.Strips[j])
	}
	return nil
}

// Decode reconstructs up to two erased strips with the standard RAID-6
// algebra: P syndromes for the XOR side, Q syndromes divided by the
// appropriate powers of g for the Q side, and the two-data-failure case
// solved from the 2x2 Vandermonde system.
func (c *Code) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	if err := s.CheckShape(c.k, 2, 1); err != nil {
		return err
	}
	k := c.k
	switch len(erased) {
	case 0:
		return nil
	case 1:
		return c.decodeOne(s, erased[0], ops)
	case 2:
		a, b := erased[0], erased[1]
		if a > b {
			a, b = b, a
		}
		if a < 0 || b > k+1 {
			return fmt.Errorf("%w: erased=%v", core.ErrParams, erased)
		}
		if a == b {
			return c.decodeOne(s, a, ops)
		}
		switch {
		case a >= k: // P and Q
			return c.Encode(s, ops)
		case b == k: // data + P: recover data from Q, then P
			c.recoverViaQ(s, a, ops)
			return c.encodeP(s, ops)
		case b == k+1: // data + Q: recover data from P, then Q
			c.recoverViaP(s, a, ops)
			return c.encodeQ(s, ops)
		default: // two data strips
			return c.decodeTwoData(s, a, b, ops)
		}
	default:
		return core.ErrTooManyErasures
	}
}

func (c *Code) decodeOne(s *core.Stripe, e int, ops *core.Ops) error {
	switch {
	case e == c.k:
		return c.encodeP(s, ops)
	case e == c.k+1:
		return c.encodeQ(s, ops)
	case e >= 0 && e < c.k:
		c.recoverViaP(s, e, ops)
		return nil
	default:
		return fmt.Errorf("%w: erased=%d", core.ErrParams, e)
	}
}

func (c *Code) encodeP(s *core.Stripe, ops *core.Ops) error {
	pe := s.Strips[c.k]
	ops.Copy(pe, s.Strips[0])
	for j := 1; j < c.k; j++ {
		ops.XorInto(pe, s.Strips[j])
	}
	return nil
}

func (c *Code) encodeQ(s *core.Stripe, ops *core.Ops) error {
	qe := s.Strips[c.k+1]
	ops.Copy(qe, s.Strips[c.k-1])
	for j := c.k - 2; j >= 0; j-- {
		gf.Mul2Slice(qe, qe)
		ops.XorInto(qe, s.Strips[j])
	}
	return nil
}

func (c *Code) recoverViaP(s *core.Stripe, d int, ops *core.Ops) {
	de := s.Strips[d]
	ops.Copy(de, s.Strips[c.k])
	for j := 0; j < c.k; j++ {
		if j != d {
			ops.XorInto(de, s.Strips[j])
		}
	}
}

// recoverViaQ rebuilds data strip d from Q alone:
// D_d = (Q ^ XOR_{j!=d} g^j D_j) * g^{-d}.
func (c *Code) recoverViaQ(s *core.Stripe, d int, ops *core.Ops) {
	de := s.Strips[d]
	ops.Copy(de, s.Strips[c.k+1])
	for j := 0; j < c.k; j++ {
		if j != d {
			gf.MulXorSlice(de, s.Strips[j], gf.Exp(j))
		}
	}
	gf.MulSlice(de, de, gf.Inv(gf.Exp(d)))
}

// decodeTwoData solves the two-data-failure system
//
//	D_a ^ D_b                 = Psyn
//	g^a * D_a ^ g^b * D_b     = Qsyn
//
// giving D_b = (Qsyn ^ g^a * Psyn) / (g^a ^ g^b) and D_a = Psyn ^ D_b.
func (c *Code) decodeTwoData(s *core.Stripe, a, b int, ops *core.Ops) error {
	k := c.k
	n := s.ElemSize
	psyn := make([]byte, n)
	qsyn := make([]byte, n)
	ops.Copy(psyn, s.Strips[k])
	ops.Copy(qsyn, s.Strips[k+1])
	for j := 0; j < k; j++ {
		if j == a || j == b {
			continue
		}
		ops.XorInto(psyn, s.Strips[j])
		gf.MulXorSlice(qsyn, s.Strips[j], gf.Exp(j))
	}
	denom := gf.Inv(gf.Exp(a) ^ gf.Exp(b))
	db := s.Strips[b]
	gf.MulSlice(db, psyn, gf.Exp(a))
	ops.XorInto(db, qsyn)
	gf.MulSlice(db, db, denom)
	da := s.Strips[a]
	ops.Copy(da, psyn)
	ops.XorInto(da, db)
	return nil
}
