package core

// The source prologue. A CG iteration ends with x += αp; p = z + βp and
// the next begins with w = A p, which decodes p again: a second verified
// read of values the update held a moment before. When the product
// comes next, the solver hangs the update on p instead, and the product
// runs it as its read of p: one pass reads x, p and z once, writes x
// and p, and keeps the new p, masked as written, as the dense source
// the sweep multiplies (a kept Pass output). The kept values are
// exactly what a verified read of p would return, so the product, and
// a dot request answered from its source (DotRequest), are
// bit-identical to the update followed by the product. Every format's
// product reads its sources through DecodeSources under every scheme,
// None included (DESIGN.md section 43), so each runs the update there.
//
// Like a dot request, the update rides on a vector rather than on the
// operator, so every wrapper that passes x through reaches a format's
// source read with it attached. A product that never reaches one leaves
// it attached (Pending), and its caller runs the update and the product
// again.

// UpdateRequest is a vector pass deferred onto one of its outputs, v,
// to run as the source read of the next product from v.
type UpdateRequest struct {
	v    *Vector
	opt  FusedOptions
	outs [2]Lin
	n    int
}

// Defer attaches the pass outs (one of which writes v) under opt to v.
// outs are taken as they stand: the pass reads its sources when it
// runs.
func (u *UpdateRequest) Defer(v *Vector, opt FusedOptions, outs ...Lin) {
	*u = UpdateRequest{v: v, opt: opt}
	u.n = copy(u.outs[:], outs)
	v.upd = u
}

// Pending reports whether u is still attached to its vector: no product
// has taken it since Defer.
func (u *UpdateRequest) Pending() bool { return u.v != nil && u.v.upd == u }

// Drop detaches u from its vector without running it.
func (u *UpdateRequest) Drop() {
	if u.Pending() {
		u.v.upd = nil
	}
}

// Run detaches u and runs its pass over the whole of its vectors, keeping
// nothing: the update without the product.
func (u *UpdateRequest) Run() error {
	u.Drop()
	_, err := Pass(u.opt, DotOf{}, u.outs[:u.n]...)
	return err
}

// RunKept runs u's pass over blocks [b0, b1) of its vectors and keeps
// what it writes to u's vector in keep, block b0 first. The whole vector
// runs under u's decomposition, a part of it as one range. It leaves u
// attached: the product detaches it (Drop) once, whether or not the
// parts it ran succeeded.
func (u *UpdateRequest) RunKept(b0, b1 int, keep []float64) error {
	outs := u.outs
	for j := range outs[:u.n] {
		if outs[j].Dst == u.v {
			outs[j].keep = keep
		}
	}
	if b0 == 0 && b1 == u.v.Blocks() {
		_, err := Pass(u.opt, DotOf{}, outs[:u.n]...)
		return err
	}
	var p pass
	if err := p.plan(DotOf{}, outs[:u.n]); err != nil {
		return err
	}
	p.keep0 = b0
	_, err := p.run(b0, b1)
	return err
}

// PendingUpdate returns the update a product about to read v must run
// first, or nil.
func (v *Vector) PendingUpdate() *UpdateRequest { return v.upd }
