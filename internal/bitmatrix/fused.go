package bitmatrix

import "repro/internal/core"

// FusedOp is one element operation with up to four XOR sources folded
// into a single kernel call. Fusing consecutive accumulations into the
// same element cuts the kernel calls, and their dispatch and length
// checks, to roughly a quarter; the kernel still makes one region-XOR
// pass per source over the L1-resident destination.
type FusedOp struct {
	Kind           OpKind
	DstCol, DstRow int
	// Srcs holds the (col, row) sources: exactly one for OpCopy, one to
	// four for OpXor, none for OpZero.
	Srcs [][2]int
}

// FusedSchedule is a Schedule compiled for execution.
type FusedSchedule []FusedOp

// Fuse groups consecutive XOR accumulations into the same destination
// into multi-source operations (up to four sources each, the widest
// xorblk kernel). The operation semantics — and the XOR counts reported
// through core.Ops — are unchanged.
func (sch Schedule) Fuse() FusedSchedule {
	out := make(FusedSchedule, 0, len(sch))
	for i := 0; i < len(sch); {
		op := sch[i]
		if op.Kind != OpXor {
			f := FusedOp{Kind: op.Kind, DstCol: op.DstCol, DstRow: op.DstRow}
			if op.Kind == OpCopy {
				f.Srcs = [][2]int{{op.SrcCol, op.SrcRow}}
			}
			out = append(out, f)
			i++
			continue
		}
		f := FusedOp{Kind: OpXor, DstCol: op.DstCol, DstRow: op.DstRow}
		for i < len(sch) && len(f.Srcs) < 4 {
			next := sch[i]
			if next.Kind != OpXor || next.DstCol != f.DstCol || next.DstRow != f.DstRow {
				break
			}
			f.Srcs = append(f.Srcs, [2]int{next.SrcCol, next.SrcRow})
			i++
		}
		out = append(out, f)
	}
	return out
}

// Run executes the fused schedule against a stripe.
func (fs FusedSchedule) Run(s *core.Stripe, ops *core.Ops) {
	for _, op := range fs {
		dst := s.Elem(op.DstCol, op.DstRow)
		switch op.Kind {
		case OpCopy:
			ops.Copy(dst, s.Elem(op.Srcs[0][0], op.Srcs[0][1]))
		case OpZero:
			ops.Zero(dst)
		case OpXor:
			switch len(op.Srcs) {
			case 1:
				ops.XorInto(dst, s.Elem(op.Srcs[0][0], op.Srcs[0][1]))
			case 2:
				ops.XorInto2(dst,
					s.Elem(op.Srcs[0][0], op.Srcs[0][1]),
					s.Elem(op.Srcs[1][0], op.Srcs[1][1]))
			case 3:
				ops.XorInto3(dst,
					s.Elem(op.Srcs[0][0], op.Srcs[0][1]),
					s.Elem(op.Srcs[1][0], op.Srcs[1][1]),
					s.Elem(op.Srcs[2][0], op.Srcs[2][1]))
			case 4:
				ops.XorInto4(dst,
					s.Elem(op.Srcs[0][0], op.Srcs[0][1]),
					s.Elem(op.Srcs[1][0], op.Srcs[1][1]),
					s.Elem(op.Srcs[2][0], op.Srcs[2][1]),
					s.Elem(op.Srcs[3][0], op.Srcs[3][1]))
			}
		}
	}
}

// XORCount returns the number of XOR accumulations the fused schedule
// performs (identical to the unfused schedule's count).
func (fs FusedSchedule) XORCount() int {
	n := 0
	for _, op := range fs {
		if op.Kind == OpXor {
			n += len(op.Srcs)
		}
	}
	return n
}
