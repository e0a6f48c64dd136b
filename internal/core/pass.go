package core

import (
	"fmt"
	"slices"

	"abft/internal/par"
)

// One vector pass. Every blockwise vector kernel in the repository —
// Dot, Waxpby, Axpy, Copy, the fused CG tail, residual formation, the
// sharded operator's inner product, checkpoint copies and the TeaLeaf
// solvers' updates — is one walk over the codeword blocks of its
// vectors: read each source block once, form the outputs in registers,
// write each output block once, and fold an inner product into a
// per-range partial sum. Pass is that walk, written once, so the read
// order, the commit rule, the check accounting and the partial-sum
// placement are stated in one place.

// FusedOptions selects the decomposition of a pass.
type FusedOptions struct {
	// Workers bounds the parallel split when no explicit decomposition
	// is given; it feeds par.Ranges.
	Workers int
	// BlockBands, when set, fixes the block-index decomposition — one
	// partial sum per band — instead of the par.Ranges split, and
	// combines the partials in the pairwise binary tree (the sharded
	// operators' deterministic allreduce analogue) instead of the flat
	// range-order sum. Banded (sharded) operators pass their band
	// structure here so the pass's dot reproduces their reduction.
	BlockBands [][2]int
}

// ranges returns the block decomposition for a vector of blocks blocks.
func (o FusedOptions) ranges(blocks int) [][2]int {
	if len(o.BlockBands) > 0 {
		return o.BlockBands
	}
	return par.Ranges(blocks, o.Workers, 1)
}

// Reduce combines per-range partial dot sums in the configured order,
// overwriting partials: the one combine every pass, the dot epilogue and
// the sharded operator's product answers share.
func (o FusedOptions) Reduce(partials []float64) float64 {
	if len(o.BlockBands) > 0 {
		for step := 1; step < len(partials); step *= 2 {
			for i := 0; i+step < len(partials); i += 2 * step {
				partials[i] += partials[i+step]
			}
		}
		return partials[0]
	}
	var total float64
	for _, s := range partials {
		total += s
	}
	return total
}

// sum runs part over every range, places each range's partial sum at the
// range's index in partials and combines them as o reduces: the one
// placement of per-range partials, which Pass and the dot epilogue
// share. The ranges run in parallel groups of consecutive ranges, one
// group per runnable thread (par.ForEach clamps to GOMAXPROCS), so a
// single-threaded process walks them in order without a dispatch; the
// error returned is the lowest failing range's.
func (o FusedOptions) sum(ranges [][2]int, partials []float64, part func(lo, hi int) (float64, error)) (float64, error) {
	err := par.ForEach(len(ranges), len(ranges), 1, func(lo, hi int) error {
		for i, r := range ranges[lo:hi] {
			s, err := part(r[0], r[1])
			if err != nil {
				return err
			}
			partials[lo+i] = s
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return o.Reduce(partials), nil
}

// Lin is one output of a Pass: Dst = A·X + B·Y, or, with Y nil, a
// verbatim copy of X re-encoded under Dst's scheme.
type Lin struct {
	Dst, X, Y *Vector
	A, B      float64
	// keep, when non-nil, receives the output as well, masked as written
	// — what a verified read of Dst would return — block blk at
	// keep[(blk-b0)*BlockLen:], b0 the first block of the pass's
	// decomposition: the dense source a product multiplies when the pass
	// is its prologue (UpdateRequest.RunKept).
	keep []float64
}

// DotOf names the inner product A·B a Pass returns; the zero value asks
// for none.
type DotOf struct{ A, B *Vector }

// Pass makes one blockwise pass over its vectors. Per block it reads
// every distinct source once, verified, forms and writes each
// output, and, when dot names one, accumulates dot.A·dot.B. The contract:
//
//   - Sources are read in order of first appearance: X before Y, output
//     by output, then dot operands that are not outputs. A block's
//     uncorrectable error is the first such source's.
//   - A vector named twice is read, and its checks counted, once.
//   - Every output is formed from the sources as they stood before the
//     pass, so a destination may alias any source.
//   - A copy (Y nil) writes the read values verbatim: it never computes
//     1·X, which would quiet a signalling NaN. A two-term output is
//     exactly A*X + B*Y, terms like 0·Y and 1·X included.
//   - A dot operand that is an output contributes its values masked as
//     written — what a verified read of the destination would return —
//     and a source contributes the values read. The dot sums in strict
//     element order per range of opt's decomposition and reduces as opt
//     does, so it is bit-identical to Dot (or the sharded band tree) run
//     over the vectors after the pass.
//   - Corrections are committed at every worker count: every block
//     belongs to exactly one range.
//
// Pass writes at most two outputs.
func Pass(opt FusedOptions, dot DotOf, outs ...Lin) (float64, error) {
	var p pass
	if err := p.plan(dot, outs); err != nil {
		return 0, err
	}
	ranges := opt.ranges(p.blocks)
	p.keep0 = ranges[0][0]
	if len(ranges) == 1 {
		// A lone partial reduces to itself: a sum begun at +0 is never -0.
		return p.run(ranges[0][0], ranges[0][1])
	}
	q := p // only a parallel pass moves its plan to the heap
	return opt.sum(ranges, make([]float64, len(ranges)), q.run)
}

// outSlot is the buffer slot of a pass's first output: before it, room
// for every distinct source two outputs of two terms and a dot can name.
const outSlot = 6

// pass is a Pass resolved against its vectors. Buffer slots [0, outSlot)
// hold source blocks, slot outSlot+j output j's block (a copy writes its
// source's slot).
type pass struct {
	blocks int
	src    [outSlot]*Vector
	out    [2]out
	ns, no int
	dot    bool
	da, db int // the dot operands' buffer slots
	keep0  int // the block a kept output's buffer starts at
}

// out is one resolved output: its sources' slots (y < 0 for a copy) and
// whether it is a dot operand, whose block is read back into slot
// outSlot+j, unchecked, as soon as it is written.
type out struct {
	dst    *Vector
	a, b   float64
	x, y   int
	dotted bool
	keep   []float64
}

func (p *pass) plan(dot DotOf, outs []Lin) error {
	if len(outs) > len(p.out) {
		return fmt.Errorf("core: Pass writes at most %d outputs, got %d", len(p.out), len(outs))
	}
	p.no = len(outs)
	for j, l := range outs {
		p.out[j] = out{dst: l.Dst, a: l.A, b: l.B, x: p.slot(l.X), y: -1, keep: l.keep}
		if l.Y != nil {
			p.out[j].y = p.slot(l.Y)
		}
	}
	if dot.A != nil {
		p.dot, p.da, p.db = true, p.operand(dot.A), p.operand(dot.B)
	}
	mismatch := false
	for _, o := range p.out[:p.no] {
		mismatch = mismatch || o.dst.Len() != p.src[0].Len()
	}
	for _, v := range p.src[:p.ns] {
		mismatch = mismatch || v.Len() != p.src[0].Len()
	}
	if mismatch {
		return fmt.Errorf("core: Pass over vectors of unequal lengths (the first is %d long)", p.src[0].Len())
	}
	return nil
}

// slot returns v's source slot, giving it the next one on first sight
// (and taking the pass's block count from it).
func (p *pass) slot(v *Vector) int {
	k := slices.Index(p.src[:p.ns], v)
	if k < 0 {
		k, p.src[p.ns], p.blocks = p.ns, v, v.Blocks()
		p.ns++
	}
	return k
}

// operand returns a dot operand's slot: an output's block as stored,
// else the source's.
func (p *pass) operand(v *Vector) int {
	j := slices.IndexFunc(p.out[:p.no], func(o out) bool { return o.dst == v })
	if j < 0 {
		return p.slot(v)
	}
	p.out[j].dotted = true
	return outSlot + j
}

// run is the pass over blocks [lo, hi), returning the range's partial
// dot.
func (p *pass) run(lo, hi int) (float64, error) {
	var buf [outSlot + 2][BlockLen]float64
	for _, v := range p.src[:p.ns] {
		v.counters.AddChecks(uint64(hi-lo) * v.checksPerBlock())
	}
	var s float64
	da, db := &buf[p.da], &buf[p.db]
	for blk := lo; blk < hi; blk++ {
		for k, v := range p.src[:p.ns] {
			if err := v.readBlock(blk, &buf[k], true); err != nil {
				return 0, err
			}
		}
		for j := range p.out[:p.no] {
			o := &p.out[j]
			w := &buf[o.x]
			if o.y >= 0 {
				// Unrolled: a loop counter here costs more than the
				// arithmetic.
				w = &buf[outSlot+j]
				a, x, b, y := o.a, &buf[o.x], o.b, &buf[o.y]
				w[0], w[1], w[2], w[3] = a*x[0]+b*y[0], a*x[1]+b*y[1], a*x[2]+b*y[2], a*x[3]+b*y[3]
				w[4], w[5], w[6], w[7] = a*x[4]+b*y[4], a*x[5]+b*y[5], a*x[6]+b*y[6], a*x[7]+b*y[7]
			}
			o.dst.WriteBlock(blk, w)
			if o.dotted {
				o.dst.payload(blk, &buf[outSlot+j])
			}
			if o.keep != nil {
				o.dst.payload(blk, (*[BlockLen]float64)(o.keep[(blk-p.keep0)*BlockLen:]))
			}
		}
		if p.dot {
			// Strict element order (+ associates left) keeps every
			// partial bit-identical to a sequential sweep of the blocks.
			s = s + da[0]*db[0] + da[1]*db[1] + da[2]*db[2] + da[3]*db[3] +
				da[4]*db[4] + da[5]*db[5] + da[6]*db[6] + da[7]*db[7]
		}
	}
	return s, nil
}
