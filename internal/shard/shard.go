// Package shard generalises the TeaLeaf halo exchange into a
// format-agnostic row-partitioned sharded operator: any assembled sparse
// matrix — a stencil, a Matrix Market download, raw triplets — splits
// into horizontal row bands, each owning an ABFT-protected local matrix
// in any registered storage format (internal/op) plus a protected
// halo-extended local vector. Before every matrix-vector product the
// shards exchange boundary entries, the in-process analogue of an MPI
// halo exchange, and global inner products tree-reduce per-shard
// partial sums as an MPI allreduce would.
//
// The exchange goes through the protected read/verify -> re-encode
// path: a value is integrity-checked as it is packed from the owning
// shard's memory and re-encoded as it lands in the neighbour's halo, so
// a bit flip on either side is caught at the boundary exactly as it
// would be inside a kernel. Shards execute in parallel goroutines in
// bulk-synchronous phases.
//
// The composite is a core.Shell over its own core.Layout, exactly as
// each storage format is: the shell makes one sweep decision per
// product for every band, and the layout's product runs the pipeline
// and each band's format kernel under that one decision. So the
// iterative solvers, the abftd operator cache, the scrub daemon and the
// fault campaigns all run over it unchanged.
package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/par"
)

// packChunk is how many vector blocks one batched verified read covers
// during scatter: large enough to amortise the per-call verify
// accounting, small enough to keep the stack-friendly scratch buffer out
// of the allocator's large-object path.
const packChunk = 64

// Phase names one bulk-synchronous step of a sharded Apply; the phase
// hook receives it after the step's barrier.
type Phase int

const (
	// PhaseScatter: global x verified and re-encoded into every shard's
	// local interior.
	PhaseScatter Phase = iota
	// PhaseExchange: boundary entries packed from neighbour shards into
	// the local halos.
	PhaseExchange
	// PhaseLocal: per-shard protected products computed straight into
	// the global destination.
	PhaseLocal
)

func (p Phase) String() string {
	switch p {
	case PhaseScatter:
		return "scatter"
	case PhaseExchange:
		return "exchange"
	case PhaseLocal:
		return "local"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Options configures a sharded operator.
type Options struct {
	// Shards is the number of row bands (default 2). The count is
	// clamped so every band holds at least one codeword-aligned block of
	// rows; Operator.Shards reports the effective value.
	Shards int
	// Format selects the storage format of every shard's local protected
	// matrix.
	Format op.Format
	// Config carries the local matrices' protection configuration
	// (element and row-pointer schemes, CRC backend, sigma), exactly as
	// for a single operator of the same format. Its check interval is
	// the composite's: every band full-checks on the same sweeps.
	Config op.Config
	// VectorScheme protects the halo-extended local vectors the exchange
	// packs into (default none).
	VectorScheme core.Scheme
}

// Clamp returns the effective shard count for a matrix with rows rows:
// the largest band count <= shards whose boundaries stay aligned to the
// protected-vector block (core.BlockLen rows), so no two shards ever
// share a codeword block of a global vector. The smallest band is one
// block, so the count is at most ⌈rows/core.BlockLen⌉: a 17-row matrix
// takes 3 shards, a 16-row one 2.
func Clamp(rows, shards int) int {
	if shards < 1 {
		shards = 1
	}
	return len(par.Partition(rows, shards, core.BlockLen))
}

// matrix is a band's local protected matrix: a storage format's
// core.Shell, through which the composite attaches counters and reads
// the format's protection, and its core.Layout, whose Product the
// composite calls under its own Sweep. Every op format is both.
type matrix interface {
	core.ProtectedMatrix
	core.Layout
	Protected() bool
}

// band is one row shard: global rows [r0, r1) and a local protected
// matrix over the halo-extended column space.
type band struct {
	r0, r1 int
	m      matrix
	// haloCols are the out-of-band global columns this band's rows
	// couple to, ascending; local column interiorPad+k holds haloCols[k].
	haloCols []uint32
	// interiorPad is the block-padded interior width: the local column
	// index where the halo section starts.
	interiorPad int
	// localCols is the local column space width (interiorPad + halo).
	localCols int
}

func (b *band) rows() int { return b.r1 - b.r0 }

// blocks is the band's interior width in codeword blocks.
func (b *band) blocks() int { return b.interiorPad / core.BlockLen }

// local is one band's share of a workspace at width k: x holds the
// halo-extended inputs ([interior | pad | halo] per column), and y is a
// view of the band's rows of every caller destination (the band's
// boundaries are block-aligned), re-pointed by each product, so the local
// product is written where the caller reads it — no local copy, no
// gather; the views keep the last product's destinations reachable until
// the workspace's next product. buf stages unprotected values between a verified read and the
// re-encoding write — one chunk of one column during scatter, one
// boundary run during the exchange — and out assembles one halo block
// per column.
type local struct {
	x   *core.MultiVector
	y   core.MultiVector
	buf []float64
	out [][core.BlockLen]float64
}

// workspace is one in-flight product's per-band operands. Workspaces are
// pooled per width so concurrent callers (many solve jobs sharing one
// cached operator) never contend on buffers; the width-1 primary
// persists for the operator's lifetime and is the resident memory halo
// fault campaigns corrupt.
type workspace []local

// Operator is a row-sharded protected operator: a core.Shell over its
// own core.Layout. The shell writes the core.ProtectedMatrix contract —
// shape, counters, read mode, and the one sweep counter whose check
// interval every band follows — and Product runs the bulk-synchronous
// scatter/exchange/local-product pipeline across per-shard goroutines.
// Concurrent Apply callers each draw a workspace from an internal pool,
// so solves sharing one cached operator proceed without contention;
// Scrub and Diagonal follow the same owner-serialised contract as every
// other ProtectedMatrix implementation.
type Operator struct {
	core.Shell
	opt   Options
	bands []*band
	// reduce is the global inner product's reduction: one block range
	// per band, combined in the binary tree.
	reduce core.FusedOptions

	// hook, when set, observes phase barriers (fault campaigns corrupt
	// shard-local state between phases through it). Set before sharing.
	hook func(Phase)

	// primary is the operator's resident width-1 workspace (Local
	// exposes its vectors for fault injection); free holds one LIFO pool
	// per width, primary at the bottom of width 1's, so a single-threaded
	// caller always reuses it. A width's first workspace is allocated by
	// the first product of that width.
	primary workspace
	wsMu    sync.Mutex
	free    map[int][]workspace
}

// New partitions src into row bands and builds each band's protected
// local matrix in the configured format. Band boundaries are aligned to
// the vector codeword block, so the shard count is clamped to at most
// one band per block of rows. The check interval is the composite's:
// the bands are built without one.
func New(src *csr.Matrix, opt Options) (*Operator, error) {
	if opt.Shards <= 0 {
		opt.Shards = 2
	}
	if err := src.Validate(); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if src.Rows() != src.Cols32() {
		// Row bands partition the column space too: every halo column
		// must have an owning band to pack from.
		return nil, fmt.Errorf("shard: matrix is %dx%d; row sharding needs a square operator",
			src.Rows(), src.Cols32())
	}
	o := &Operator{opt: opt}
	cfg := opt.Config
	cfg.CheckInterval = 0
	nnz, protected := 0, false
	for _, r := range par.Partition(src.Rows(), opt.Shards, core.BlockLen) {
		b, err := newBand(src, r[0], r[1], opt.Format, cfg)
		if err != nil {
			return nil, err
		}
		o.bands = append(o.bands, b)
		nnz += b.m.NNZ()
		protected = protected || b.m.Protected()
		o.reduce.BlockBands = append(o.reduce.BlockBands, [2]int{r[0] / core.BlockLen, r[0]/core.BlockLen + b.blocks()})
	}
	o.Init(o, src.Rows(), src.Cols32(), nnz, opt.Config.Scheme, protected)
	o.SetCheckInterval(opt.Config.CheckInterval)
	o.primary = o.newWorkspace(1)
	o.free = map[int][]workspace{1: {o.primary}}
	return o, nil
}

// Build returns the operator opt describes: src row-partitioned by New
// when opt.Shards > 1, and otherwise one band, which is the plain
// op.New matrix of opt.Format under opt.Config.
func Build(src *csr.Matrix, opt Options) (core.ProtectedMatrix, error) {
	if opt.Shards <= 1 {
		return op.New(opt.Format, src, opt.Config)
	}
	return New(src, opt)
}

// newWorkspace allocates width-k per-band operands wired to the current
// counters and CRC backend.
func (o *Operator) newWorkspace(k int) workspace {
	ws := make(workspace, len(o.bands))
	for i, b := range o.bands {
		l := &ws[i]
		l.x = core.NewMultiVector(b.localCols, k, o.opt.VectorScheme)
		l.x.SetCRCBackend(o.opt.Config.Backend)
		l.x.SetCounters(o.Counters())
		l.buf = make([]float64, packChunk*core.BlockLen)
		l.out = make([][core.BlockLen]float64, k)
	}
	return ws
}

// getWorkspace pops the most recently released width-k workspace (the
// primary for single-threaded width-1 callers) or allocates a fresh one
// when every pooled workspace of that width is held by an in-flight
// product.
func (o *Operator) getWorkspace(k int) workspace {
	o.wsMu.Lock()
	if pool := o.free[k]; len(pool) > 0 {
		ws := pool[len(pool)-1]
		o.free[k] = pool[:len(pool)-1]
		o.wsMu.Unlock()
		return ws
	}
	o.wsMu.Unlock()
	return o.newWorkspace(k)
}

func (o *Operator) putWorkspace(ws workspace) {
	k := ws[0].x.K()
	o.wsMu.Lock()
	o.free[k] = append(o.free[k], ws)
	o.wsMu.Unlock()
}

// newBand slices global rows [r0, r1) out of src, remaps out-of-band
// columns into the halo section of the local column space and protects
// the result in format f under cfg.
func newBand(src *csr.Matrix, r0, r1 int, f op.Format, cfg op.Config) (*band, error) {
	b := &band{r0: r0, r1: r1}
	b.interiorPad = (b.rows() + core.BlockLen - 1) / core.BlockLen * core.BlockLen

	// First pass: collect the distinct out-of-band columns.
	seen := make(map[uint32]bool)
	for r := r0; r < r1; r++ {
		for k := src.RowPtr[r]; k < src.RowPtr[r+1]; k++ {
			if c := src.Cols[k]; int(c) < r0 || int(c) >= r1 {
				seen[c] = true
			}
		}
	}
	b.haloCols = make([]uint32, 0, len(seen))
	for c := range seen {
		b.haloCols = append(b.haloCols, c)
	}
	sort.Slice(b.haloCols, func(i, j int) bool { return b.haloCols[i] < b.haloCols[j] })
	halo := make(map[uint32]int, len(b.haloCols))
	for i, c := range b.haloCols {
		halo[c] = b.interiorPad + i
	}

	// Second pass: remap entries into the local column space.
	entries := make([]csr.Entry, 0, int(src.RowPtr[r1]-src.RowPtr[r0]))
	for r := r0; r < r1; r++ {
		for k := src.RowPtr[r]; k < src.RowPtr[r+1]; k++ {
			c := src.Cols[k]
			lc := int(c) - r0
			if int(c) < r0 || int(c) >= r1 {
				lc = halo[c]
			}
			entries = append(entries, csr.Entry{Row: r - r0, Col: lc, Val: src.Vals[k]})
		}
	}
	b.localCols = b.interiorPad + len(b.haloCols)
	plain, err := csr.New(b.rows(), b.localCols, entries)
	if err != nil {
		return nil, fmt.Errorf("shard: rows [%d,%d): %w", r0, r1, err)
	}
	m, err := op.New(f, plain, cfg)
	if err != nil {
		return nil, fmt.Errorf("shard: rows [%d,%d): %w", r0, r1, err)
	}
	b.m = m.(matrix)
	return b, nil
}

// Shards returns the effective band count.
func (o *Operator) Shards() int { return len(o.bands) }

// ShardRange returns the global row range [r0, r1) of shard i.
func (o *Operator) ShardRange(i int) (r0, r1 int) { return o.bands[i].r0, o.bands[i].r1 }

// BandRanges returns every shard's global row range in order — the
// decomposition band-aligned preconditioners (internal/precond
// block-Jacobi) adopt so their per-band applications run on goroutines
// matching the shard layout, and that the solver recovery controller
// (internal/solvers) uses to checkpoint and restore the live solve
// vectors per band, on per-band goroutines, instead of through one
// global sweep. Both rely on the boundaries being aligned to the
// protection codeword block: no two bands ever share a codeword of a
// global vector.
func (o *Operator) BandRanges() [][2]int {
	out := make([][2]int, len(o.bands))
	for i, b := range o.bands {
		out[i] = [2]int{b.r0, b.r1}
	}
	return out
}

// Shard exposes shard i's protected local matrix (fault injection and
// inspection).
func (o *Operator) Shard(i int) core.ProtectedMatrix { return o.bands[i].m }

// Local exposes shard i's halo-extended local vector in the operator's
// resident primary workspace — the buffer the exchange packs from and
// into (single-threaded callers always draw the primary). Fault
// campaigns flip bits in its raw storage to model corruption striking a
// shard's memory between phases.
func (o *Operator) Local(i int) *core.Vector { return o.primary[i].x.Col(0) }

// HaloRange returns the element range [lo, hi) of shard i's halo
// section within its local vector.
func (o *Operator) HaloRange(i int) (lo, hi int) {
	b := o.bands[i]
	return b.interiorPad, b.interiorPad + len(b.haloCols)
}

// SetPhaseHook installs a function observing Apply's phase barriers
// (fault campaigns corrupt shard state mid-product through it). It must
// be set before the operator is shared. Each Apply fires the hook at
// its own barriers with no lock held — a barrier joins only that call's
// band goroutines — so a hook mutating shard state assumes a single
// in-flight Apply, the shape every campaign has.
func (o *Operator) SetPhaseHook(fn func(Phase)) { o.hook = fn }

// SetCounters attaches a statistics accumulator to the composite, every
// shard's matrix and workspace input vector, satisfying
// core.ProtectedMatrix. Must be called before the operator is shared
// (workspaces allocated for later concurrent Apply calls inherit the
// accumulator). The local products are views of the caller's
// destinations and count into theirs.
func (o *Operator) SetCounters(c *core.Counters) {
	o.Shell.SetCounters(c)
	for _, b := range o.bands {
		b.m.SetCounters(c)
	}
	o.wsMu.Lock()
	defer o.wsMu.Unlock()
	for _, pool := range o.free {
		for _, ws := range pool {
			for _, l := range ws {
				l.x.SetCounters(c)
			}
		}
	}
}

// RawVals exposes shard 0's stored values for generic fault injection;
// use Shard to target a specific shard.
func (o *Operator) RawVals() []float64 { return o.bands[0].m.RawVals() }

// RawCols exposes shard 0's stored column indices for generic fault
// injection; use Shard to target a specific shard.
func (o *Operator) RawCols() []uint32 { return o.bands[0].m.RawCols() }

// ElemCodewordSpan delegates to shard 0's format geometry, satisfying
// core.ElemSpanner for same-codeword fault campaigns.
func (o *Operator) ElemCodewordSpan(pick func(n int) int) (base, span int) {
	return o.bands[0].m.ElemCodewordSpan(pick)
}

// owner returns the index of the band owning global column c.
func (o *Operator) owner(c int) int {
	return sort.Search(len(o.bands), func(i int) bool { return o.bands[i].r1 > c })
}

func (o *Operator) fire(p Phase) {
	if o.hook != nil {
		o.hook(p)
	}
}

// pendingDots returns the dot requests pending on dsts that this product
// can answer (core.DotRequest), indexed by column, or nil when it can
// answer none. It answers a request that reduces as Dot does — one block
// range per band, combined in the binary tree, which is what the solver
// engine asks a banded operator for — and only while a band's decode of
// its interior is x itself, that is unless the halo vectors' scheme
// reserves more bits than x's.
func (o *Operator) pendingDots(dsts, xs []*core.Vector) []*core.DotRequest {
	var reqs []*core.DotRequest
	halo := o.opt.VectorScheme.VecReservedBits() > xs[0].Scheme().VecReservedBits()
	for j, dst := range dsts {
		r := dst.PendingDot(xs[j])
		if r == nil || halo || !o.reducesAs(r.Options()) {
			continue
		}
		if reqs == nil {
			reqs = make([]*core.DotRequest, len(dsts))
		}
		reqs[j] = r
	}
	return reqs
}

// reducesAs reports whether opt is the operator's own dot reduction: one
// block range per band, combined in the binary tree.
func (o *Operator) reducesAs(opt core.FusedOptions) bool {
	return len(opt.BlockBands) > 0 && slices.Equal(opt.BlockBands, o.reduce.BlockBands)
}

// Product is the one pipeline, satisfying core.Layout: dsts[j] = A xs[j]
// for every j through one scatter, one exchange and one local product
// per band, written through a view into the band's rows of dsts. Width
// is the only parameter; column j sees exactly the reads, writes and
// checks a width-1 call would give it. Every band's product runs its
// format's Layout.Product under the one Sweep the shell decided, so
// every band full-checks on the same sweeps. Without sw.Sources every
// read streams masked payload with no decode, no commit and no check
// accounting, and the local products run unverified too. dst may be x:
// the scatter has read all of x before any product writes. workers is
// the total kernel goroutine budget, divided across shards (each shard
// always gets its own goroutine). A dot request pending on a
// destination (pendingDots) is passed down to every band's local
// product, which answers it over the band's interior from its own
// sweep, and the band answers reduce through Dot's tree.
func (o *Operator) Product(dsts, xs []*core.Vector, workers int, sw core.Sweep) error {
	reqs := o.pendingDots(dsts, xs)
	ws := o.getWorkspace(len(xs))
	defer o.putWorkspace(ws)
	localWorkers := max(workers/len(o.bands), 1)
	// Each block of the caller's x has one reader, so its repairs commit;
	// a halo source block may be read by several shards at once, so its
	// repairs are used and counted but not written.
	xMode, haloMode := core.ModeExclusive, core.ModeShared
	if !sw.Sources {
		xMode, haloMode = core.ModeUnverified, core.ModeUnverified
	}

	// Scatter: each shard reads its own span of every global column and
	// re-encodes it into its local interior. Band boundaries are
	// block-aligned, so shards never touch a shared codeword of x. A
	// column with an update pending (core.UpdateRequest) is read by the
	// update's pass over the band's span, which writes the new x in place
	// and keeps it for the interior; the update is then detached once.
	err := o.forBands(func(lo, hi int) error {
		for bi := lo; bi < hi; bi++ {
			b, l := o.bands[bi], &ws[bi]
			for j, x := range xs {
				if err := scatterBlocks(l.x.Col(j), x, b.r0/core.BlockLen, b.blocks(), xMode, l.buf); err != nil {
					return fmt.Errorf("shard: scatter into shard %d: %w", bi, err)
				}
			}
		}
		return nil
	})
	for _, x := range xs {
		if u := x.PendingUpdate(); u != nil {
			u.Drop()
		}
	}
	if err != nil {
		return err
	}
	o.fire(PhaseScatter)

	if err := o.exchange(ws, haloMode); err != nil {
		return err
	}
	o.fire(PhaseExchange)

	// Local products, written through views straight into the
	// block-aligned band rows of the global destinations. Band bi's
	// request for column j is bandReqs[bi*k+j]; allocated per call, so
	// the operator holds no product state.
	k := len(xs)
	var bandReqs []core.DotRequest
	if reqs != nil {
		bandReqs = make([]core.DotRequest, len(o.bands)*k)
	}
	err = o.forBands(func(lo, hi int) error {
		for bi := lo; bi < hi; bi++ {
			b, l := o.bands[bi], &ws[bi]
			l.y.View(dsts, b.r0/core.BlockLen, b.rows())
			for j, r := range reqs {
				if r != nil {
					bandReqs[bi*k+j].Ask(l.y.Col(j), l.x.Col(j), bandDot)
				}
			}
			if err := b.m.Product(l.y.Cols(), l.x.Cols(), localWorkers, sw); err != nil {
				return fmt.Errorf("shard: shard %d: %w", bi, err)
			}
		}
		return nil
	})
	for i := range bandReqs {
		bandReqs[i].Take()
	}
	if err != nil {
		return err
	}
	o.fire(PhaseLocal)
	o.answer(reqs, bandReqs)
	return nil
}

// answer reduces each column's band answers through Dot's tree into the
// column's request. A column some band left unanswered stays unanswered,
// and its caller runs Dot after the product.
func (o *Operator) answer(reqs []*core.DotRequest, bandReqs []core.DotRequest) {
	k := len(reqs)
	parts := make([]float64, len(o.bands))
	for j, r := range reqs {
		if r == nil {
			continue
		}
		answered := true
		for bi := range parts {
			var ok bool
			parts[bi], ok = bandReqs[bi*k+j].Take()
			answered = answered && ok
		}
		if answered {
			r.Answer(o.reduce.Reduce(parts))
		}
	}
}

// bandDot is a band's own partial inner product: its interior blocks as
// one range, summed in element order as Dot's per-band partial is. (The
// flat combine of one partial, 0 + s, is s: a sum begun at +0 is never
// -0.)
var bandDot = core.FusedOptions{Workers: 1}

// scatterBlocks moves n blocks of src, starting at block s0, into the
// first n blocks of dst: one batched read per packChunk blocks instead of
// a per-block check loop, each block re-encoded as it lands. With an
// update pending on src, each chunk is the update's pass over its blocks
// instead of a read, and dst receives the values it wrote.
func scatterBlocks(dst, src *core.Vector, s0, n int, mode core.ReadMode, buf []float64) error {
	u := src.PendingUpdate()
	for k := 0; k < n; k += packChunk {
		cn := min(packChunk, n-k)
		b0, b1, chunk := s0+k, s0+k+cn, buf[:cn*core.BlockLen]
		var err error
		if u != nil {
			err = u.RunKept(b0, b1, chunk)
		} else {
			err = src.Read(b0, b1, chunk, mode)
		}
		if err != nil {
			return err
		}
		for i := 0; i < cn; i++ {
			dst.WriteBlock(k+i, (*[core.BlockLen]float64)(buf[i*core.BlockLen:]))
		}
	}
	return nil
}

// exchange fills every shard's halo section from the owning shards'
// local vectors; the phase between the scatter and local barriers.
func (o *Operator) exchange(ws workspace, mode core.ReadMode) error {
	return o.forBands(func(lo, hi int) error {
		for bi := lo; bi < hi; bi++ {
			if err := o.packHalo(ws, bi, mode); err != nil {
				return err
			}
		}
		return nil
	})
}

// packHalo fills shard bi's halo through the batched pack path: the
// ascending halo columns are split into runs owned by one shard and
// spanning a contiguous range of source blocks, each run is grown once
// and its blocks read once per column in a single batched call, and the
// entries are re-encoded as they land in the destination halo, so
// corruption in either shard's memory is still caught at the boundary.
func (o *Operator) packHalo(ws workspace, bi int, mode core.ReadMode) error {
	b, l := o.bands[bi], &ws[bi]
	n := len(b.haloCols)
	halo0 := b.blocks() // the halo section starts where the padded interior ends
	clear(l.out)
	for k := 0; k < n; {
		// Grow a run: same owner, and each column's source block at
		// most one beyond the last, so every block in [blk0, blkEnd]
		// holds at least one needed entry — the batched read never
		// verifies a block the per-block path would have skipped.
		ow := o.owner(int(b.haloCols[k]))
		r0, r1 := o.bands[ow].r0, o.bands[ow].r1
		blk0 := (int(b.haloCols[k]) - r0) / core.BlockLen
		end, blkEnd := k+1, blk0
		for end < n && int(b.haloCols[end]) < r1 {
			blk := (int(b.haloCols[end]) - r0) / core.BlockLen
			if blk > blkEnd+1 {
				break
			}
			blkEnd = blk
			end++
		}
		need := (blkEnd - blk0 + 1) * core.BlockLen
		if len(l.buf) < need {
			l.buf = make([]float64, need)
		}
		for j := range l.out {
			if err := ws[ow].x.Col(j).Read(blk0, blkEnd+1, l.buf[:need], mode); err != nil {
				return fmt.Errorf("shard: pack shard %d for shard %d: %w", ow, bi, err)
			}
			out := &l.out[j]
			for c := k; c < end; c++ {
				out[c%core.BlockLen] = l.buf[int(b.haloCols[c])-r0-blk0*core.BlockLen]
				if c%core.BlockLen == core.BlockLen-1 {
					l.x.Col(j).WriteBlock(halo0+c/core.BlockLen, out)
					*out = [core.BlockLen]float64{}
				}
			}
		}
		k = end
	}
	if n%core.BlockLen != 0 {
		for j := range l.out {
			l.x.Col(j).WriteBlock(halo0+(n-1)/core.BlockLen, &l.out[j])
		}
	}
	return nil
}

// forBands runs fn over the band indices, every band on its own
// goroutine where the host has the processors, and waits.
func (o *Operator) forBands(fn func(lo, hi int) error) error {
	return par.ForEach(len(o.bands), len(o.bands), 1, fn)
}

// Dot computes the global inner product a . b with per-shard partial
// sums reduced pairwise in a binary tree — the deterministic in-process
// analogue of an MPI allreduce — in one core.Pass over the band
// decomposition. With BandRanges it makes the operator a
// solvers.BandedOperator, so every CG inner product over a sharded
// operator reduces this way.
func (o *Operator) Dot(a, b *core.Vector) (float64, error) {
	if a.Len() != o.Rows() || b.Len() != o.Rows() {
		return 0, fmt.Errorf("shard: Dot length mismatch: %d and %d over %d rows",
			a.Len(), b.Len(), o.Rows())
	}
	return core.Pass(o.reduce, core.DotOf{A: a, B: b})
}

// VerifyAll verifies and repairs every shard's matrix in turn,
// satisfying core.Layout, continuing past faulty shards so the full
// damage is counted. The workspace vectors need no patrol: their
// contents are re-verified and re-encoded from checked data on every
// product, so resident corruption there is either caught at the next
// exchange or overwritten.
func (o *Operator) VerifyAll(acc *core.Counters) (checks uint64, err error) {
	for bi, b := range o.bands {
		n, e := b.m.VerifyAll(acc)
		checks += n
		if e != nil && err == nil {
			err = fmt.Errorf("shard: shard %d: %w", bi, e)
		}
	}
	return checks, err
}

// ToCSR decodes and verifies every shard back into one global CSR
// matrix, satisfying core.Layout, remapping halo columns to their global
// positions — the exact decode fault campaigns classify against, and
// the one the shell's Diagonal reads.
func (o *Operator) ToCSR() (*csr.Matrix, error) {
	var entries []csr.Entry
	for bi, b := range o.bands {
		local, err := b.m.ToCSR()
		if err != nil {
			return nil, fmt.Errorf("shard: shard %d: %w", bi, err)
		}
		for r := 0; r < local.Rows(); r++ {
			for k := local.RowPtr[r]; k < local.RowPtr[r+1]; k++ {
				c := int(local.Cols[k])
				if c >= b.interiorPad {
					c = int(b.haloCols[c-b.interiorPad])
				} else {
					c += b.r0
				}
				entries = append(entries, csr.Entry{Row: b.r0 + r, Col: c, Val: local.Vals[k]})
			}
		}
	}
	return csr.New(o.Rows(), o.Cols(), entries)
}
