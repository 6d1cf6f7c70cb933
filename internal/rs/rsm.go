package rs

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gf"
)

// MCode is the generalized Reed-Solomon code with k data strips and m
// parity strips over GF(2^8), tolerating any m erasures. Each strip is a
// single element (W = 1), like the P+Q baseline; the parity rows come
// from a systematic Vandermonde generator (gf.RSParityMatrix), so the
// code is MDS for every k+m <= 256. With m = 2 it is algebraically
// equivalent to Code but pays general multiplications on the P row too;
// its reason to exist is m >= 3, the first family in the registry that
// survives a triple fault.
type MCode struct {
	k, m   int
	parity [][]byte // m×k parity submatrix of the systematic generator
}

// NewM returns the generalized RS code with k data strips and m parities
// (k >= 1, m >= 1, k+m <= 256).
func NewM(k, m int) (*MCode, error) {
	if k < 1 || m < 1 || k+m > 256 {
		return nil, fmt.Errorf("%w: need k >= 1, m >= 1, k+m <= 256, got k=%d m=%d",
			core.ErrParams, k, m)
	}
	parity, err := gf.RSParityMatrix(k, m)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", core.ErrParams, err)
	}
	return &MCode{k: k, m: m, parity: parity}, nil
}

// Name is "rsm(k=…,m=…)"; its span prefix rsm tells the generalized
// code's spans apart from the P+Q code's rs.* ones.
func (c *MCode) Name() string { return fmt.Sprintf("rsm(k=%d,m=%d)", c.k, c.m) }
func (c *MCode) K() int       { return c.k }

// M returns the parity count the code was built with.
func (c *MCode) M() int { return c.m }

// W returns 1: RS strips are single elements.
func (c *MCode) W() int { return 1 }

// Encode computes the m parity strips: parity i is the data vector dotted
// with row i of the parity matrix. (GF(2^8) multiplications are not
// element XORs and are not counted in Ops; the XOR half of each
// multiply-accumulate is, as on the P+Q code's Q path.)
func (c *MCode) Encode(s *core.Stripe, ops *core.Ops) error {
	if err := s.CheckShape(c.k, c.m, 1); err != nil {
		return err
	}
	for i := 0; i < c.m; i++ {
		c.encodeParity(s, i, ops)
	}
	return nil
}

// encodeParity recomputes parity strip i (0 <= i < m) from the data. The
// first term is a multiply-into (counted as a copy), each further term a
// multiply-accumulate (its XOR half counted as one element XOR).
func (c *MCode) encodeParity(s *core.Stripe, i int, ops *core.Ops) {
	row, dst := c.parity[i], s.Strips[c.k+i]
	gf.MulSlice(dst, s.Strips[0], row[0])
	ops.Add(core.Ops{Copies: 1})
	for j := 1; j < c.k; j++ {
		gf.MulXorSlice(dst, s.Strips[j], row[j])
		ops.Add(core.Ops{XORs: 1})
	}
}

// Decode reconstructs up to m erased strips: pick k surviving rows of the
// systematic generator (unit rows for data, parity rows for parities),
// invert that k×k system, and rebuild the lost data as survivor
// combinations; lost parities are then re-encoded from the full data.
// Any k survivors suffice — the generator is MDS by construction.
func (c *MCode) Decode(s *core.Stripe, erased []int, ops *core.Ops) error {
	if err := s.CheckShape(c.k, c.m, 1); err != nil {
		return err
	}
	k, m, n := c.k, c.m, c.k+c.m
	lost := make([]int, 0, len(erased))
	seen := make(map[int]bool, len(erased))
	for _, e := range erased {
		if e < 0 || e >= n {
			return fmt.Errorf("%w: erased=%v", core.ErrParams, erased)
		}
		if !seen[e] {
			seen[e] = true
			lost = append(lost, e)
		}
	}
	if len(lost) > m {
		return core.ErrTooManyErasures
	}
	sort.Ints(lost)

	var lostData, lostParity []int
	for _, e := range lost {
		if e < k {
			lostData = append(lostData, e)
		} else {
			lostParity = append(lostParity, e)
		}
	}
	if len(lostData) > 0 {
		// The k×k survivor system: row r states that survivor strip
		// ys[r] is generator row B[r] applied to the data vector.
		rows := make([][]byte, 0, k)
		ys := make([][]byte, 0, k)
		for i := 0; i < n && len(rows) < k; i++ {
			if seen[i] {
				continue
			}
			var row []byte
			if i < k {
				row = make([]byte, k)
				row[i] = 1
			} else {
				row = c.parity[i-k]
			}
			rows = append(rows, row)
			ys = append(ys, s.Strips[i])
		}
		inv, err := gf.InvertMatrix(rows)
		if err != nil {
			// Unreachable for an MDS generator; surface it rather than
			// writing garbage if the tables are ever miscomputed.
			return fmt.Errorf("rs: survivor matrix not invertible: %w", err)
		}
		for _, d := range lostData {
			dst := s.Strips[d]
			gf.MulSlice(dst, ys[0], inv[d][0])
			ops.Add(core.Ops{Copies: 1})
			for r := 1; r < k; r++ {
				gf.MulXorSlice(dst, ys[r], inv[d][r])
				ops.Add(core.Ops{XORs: 1})
			}
		}
	}
	for _, e := range lostParity {
		c.encodeParity(s, e-k, ops)
	}
	return nil
}

// Update patches all m parities after an in-place change of the data
// element at (col, row): parity i absorbs parity[i][col] * delta.
func (c *MCode) Update(s *core.Stripe, col, row int, oldElem []byte, ops *core.Ops) (int, error) {
	if err := s.CheckShape(c.k, c.m, 1); err != nil {
		return 0, err
	}
	if col < 0 || col >= c.k || row != 0 {
		return 0, fmt.Errorf("%w: update at (%d,%d)", core.ErrParams, col, row)
	}
	cur := s.Strips[col]
	if len(oldElem) != len(cur) {
		return 0, fmt.Errorf("%w: old element is %d bytes, strip is %d",
			core.ErrParams, len(oldElem), len(cur))
	}
	delta := make([]byte, len(cur))
	for i := range delta {
		delta[i] = oldElem[i] ^ cur[i]
	}
	for i := 0; i < c.m; i++ {
		gf.MulXorSlice(s.Strips[c.k+i], delta, c.parity[i][col])
		ops.Add(core.Ops{XORs: 1})
	}
	return c.m, nil
}
