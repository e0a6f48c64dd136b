package core

import (
	"math"
	"sync"
)

// The dot epilogue. A CG iteration needs p.w right after w = A p; as a
// second kernel that dot decodes p again and reads back the w the
// product has just encoded — two vector checks per row for values the
// product held a moment before. The epilogue takes both from the sweep
// itself: p from the dense decode every sweep streams from
// (DecodeSources', or a composite's own buffer; under every scheme, None
// included), w from each output block masked exactly as storage will
// return it, collected as the block is written. Once the sweep is done
// the dot reduces with the requested FusedOptions — the decomposition
// and order of the Dot it replaces — so it is bit-identical to the
// product followed by Dot whatever split the product ran under:
// collecting the outputs decouples the dot's split from the apply's.
// Nothing protected is read back.
//
// The request rides on the product's destination rather than on the
// operator: every wrapper between a solver and the matrix passes dst and
// x through unchanged, so the format's sweep sees the request however
// the operator is wrapped, and a product that never reaches a format's
// skeleton leaves it unanswered.

// DotRequest asks the product that next writes a vector for that
// vector's inner product with the product's source, taken from the
// product's own sweep. A solver that needs p.w right after w = A p
// attaches a request to w (Ask), runs the product, and takes the answer
// (Take); when no sweep answered, it runs its inner product as before.
// An answer is bit-identical to Dot — or to the band reduction the
// request's options mirror — run over the two vectors after the
// product, and costs neither of them a read.
type DotRequest struct {
	dst, x *Vector
	opt    FusedOptions
	dot    float64
	done   bool
}

// Ask attaches r to dst for a product dst = A x whose x.dst reduces over
// opt's decomposition in opt's order (Workers and BlockBands apply;
// Mode does not, the product's own reads are the dot's).
func (r *DotRequest) Ask(dst, x *Vector, opt FusedOptions) {
	*r = DotRequest{dst: dst, x: x, opt: opt}
	dst.dot = r
}

// Take detaches r from its vector and returns the dot with true when the
// last sweep to write the vector answered r.
func (r *DotRequest) Take() (float64, bool) {
	if r.dst != nil && r.dst.dot == r {
		r.dst.dot = nil
	}
	return r.dot, r.done
}

// Options returns the reduction r asks for.
func (r *DotRequest) Options() FusedOptions { return r.opt }

// Answer records the dot of a sweep that wrote r's vector from r's
// source: a composite product (the sharded operator) that reduces its
// parts' answers itself.
func (r *DotRequest) Answer(dot float64) { r.dot, r.done = dot, true }

// PendingDot returns the request a product about to write v from x must
// answer, or nil. Every sweep writing v asks first: it makes an earlier
// answer stale, and a sweep from another source cannot answer at all.
func (v *Vector) PendingDot(x *Vector) *DotRequest {
	r := v.dot
	if r == nil {
		return nil
	}
	r.done = false
	if r.x != x {
		return nil
	}
	return r
}

// DotEpilogue is one sweep's answer to the requests pending on its
// destinations. A nil *DotEpilogue is a sweep with none, so a skeleton
// threads the same pointer through both kinds of sweep.
type DotEpilogue struct {
	// reqs and outs are per column: the column's request and its masked
	// outputs, both nil for a column without one.
	reqs []*DotRequest
	outs [][]float64
	// xbufs is the dense decode of the sweep's sources.
	xbufs    [][]float64
	blocks   int
	flat     []float64
	partials []float64
}

// epiloguePool recycles epilogue buffers across sweeps, as sourcePool
// does decode buffers: an epilogue belongs to one sweep at a time and is
// never held by a matrix, an operator or a vector.
var epiloguePool = sync.Pool{New: func() any { return new(DotEpilogue) }}

// StartDots returns the epilogue of a stream into dsts from xs, decoded
// into xbufs (xbufs[j] holding xs[j]'s values from its first block on
// once the stream runs), or nil unless a request is pending on one of
// dsts for a product from its x. The caller writes every output block
// through it and ends the stream with Finish. A source shorter than its
// destination (a wide rectangular matrix) cannot answer; of a longer one
// the buffer's leading blocks answer.
func StartDots(dsts, xs []*Vector, xbufs [][]float64) *DotEpilogue {
	var ep *DotEpilogue
	for j, dst := range dsts {
		r := dst.PendingDot(xs[j])
		if r == nil || xs[j].Blocks() < dst.Blocks() {
			continue
		}
		if ep == nil {
			ep = epiloguePool.Get().(*DotEpilogue)
			if cap(ep.reqs) < len(dsts) {
				ep.reqs = make([]*DotRequest, len(dsts))
			}
			ep.reqs = ep.reqs[:len(dsts)]
			ep.xbufs, ep.blocks = xbufs, dst.Blocks()
		}
		ep.reqs[j] = r
	}
	if ep == nil {
		return nil
	}
	n := ep.blocks * BlockLen
	if cap(ep.flat) < len(dsts)*n {
		ep.flat = make([]float64, len(dsts)*n)
	}
	ep.outs = ep.outs[:0]
	for j, r := range ep.reqs {
		var w []float64
		if r != nil {
			w = ep.flat[j*n : (j+1)*n]
		}
		ep.outs = append(ep.outs, w)
	}
	return ep
}

// WriteBlock stores block blk of output column j in dst and, when the
// column has a request, keeps the block masked as a verified read of dst
// would return it — the values FusedAxpyDot's norm reads of the residual
// it writes.
func (ep *DotEpilogue) WriteBlock(j int, dst *Vector, blk int, out *[BlockLen]float64) {
	dst.WriteBlock(blk, out)
	if ep == nil || ep.outs[j] == nil {
		return
	}
	mask := dst.scheme.vecMask()
	e := blk * BlockLen
	w := ep.outs[j][e : e+BlockLen : e+BlockLen]
	for i, v := range out {
		w[i] = math.Float64frombits(math.Float64bits(v) & mask)
	}
}

// Finish answers the requests once the sweep has succeeded (err nil),
// returns the epilogue to its pool and returns err.
func (ep *DotEpilogue) Finish(err error) error {
	if ep == nil {
		return err
	}
	if err == nil {
		err = ep.reduce()
	}
	clear(ep.reqs)
	ep.xbufs = nil
	epiloguePool.Put(ep)
	return err
}

// reduce answers each request: column j's x from xbufs[j], the sweep's
// dense decode, against the masked outputs, per range of the request's
// decomposition in strict element order — the arithmetic of Dot — then
// combined as the request's options reduce.
func (ep *DotEpilogue) reduce() error {
	for j, r := range ep.reqs {
		if r == nil {
			continue
		}
		ranges := r.opt.ranges(ep.blocks)
		if cap(ep.partials) < len(ranges) {
			ep.partials = make([]float64, len(ranges))
		}
		w, p := ep.outs[j], ep.xbufs[j]
		dot, err := r.opt.sum(ranges, ep.partials[:len(ranges)], func(lo, hi int) (float64, error) {
			var s float64
			w := w[lo*BlockLen : hi*BlockLen]
			for e, pe := range p[lo*BlockLen : hi*BlockLen] {
				s += pe * w[e]
			}
			return s, nil
		})
		if err != nil {
			return err
		}
		r.Answer(dot)
	}
	return nil
}
