// Package shard generalises the TeaLeaf halo exchange into a
// format-agnostic row-partitioned sharded operator: any assembled sparse
// matrix — a stencil, a Matrix Market download, raw triplets — splits
// into horizontal row bands, each owning an ABFT-protected local matrix
// in any registered storage format (internal/op) plus a protected halo
// landing vector. A band's interior is its own span of the caller's
// vector, decoded in place as a row-distributed rank reads its part;
// only the halo moves. Before every matrix-vector product the shards
// exchange boundary entries, the in-process analogue of an MPI halo
// exchange, and global inner products tree-reduce per-shard partial
// sums as an MPI allreduce would.
//
// The exchange goes through the protected read/verify -> re-encode
// path: a value is integrity-checked as it is packed from the owning
// shard's span of the caller's vector and re-encoded as it lands in the
// neighbour's landing vector, which the neighbour verifies as it reads
// it, so a bit flip on either side is caught at the boundary exactly as
// it would be inside a kernel. Shards execute in parallel goroutines in
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
	"abft/internal/enum"
	"abft/internal/op"
	"abft/internal/par"
)

// Phase names one bulk-synchronous step of a sharded Apply; the phase
// hook receives it after the step's barrier.
type Phase int

const (
	// PhaseScatter: every shard decodes its own span of the caller's x,
	// verified in place, into the interior of its dense source buffer.
	PhaseScatter Phase = iota
	// PhaseExchange: boundary entries packed from the owning shards'
	// spans of x into every shard's halo landing vector.
	PhaseExchange
	// PhaseLocal: every shard reads its landing vector into the halo of
	// its buffer and streams its protected product straight into the
	// global destination.
	PhaseLocal
)

var phases = enum.Table[Phase]{Names: [][]string{
	PhaseScatter:  {"scatter"},
	PhaseExchange: {"exchange"},
	PhaseLocal:    {"local"},
}}

func (p Phase) String() string { return phases.String(p) }

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
	// VectorScheme protects the halo landing vectors the exchange packs
	// into (default none). A band's interior is the caller's x, read
	// under x's own scheme.
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
// the format's protection, its core.Layout, and the stream of its
// Product after the source prologue, which the composite calls under its
// own Sweep over sources it decoded itself. Every op format is all
// three.
type matrix interface {
	core.ProtectedMatrix
	core.Layout
	Protected() bool
	Stream(dsts []*core.Vector, xbufs [][]float64, workers int, sw core.Sweep, ep *core.DotEpilogue) error
}

// band is one row shard: global rows [r0, r1) and a local protected
// matrix over the halo-extended column space [interior | pad | halo].
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

// span is the length of one column of the band's dense sources: the
// local column space padded to whole blocks.
func (b *band) span() int {
	return b.interiorPad + (len(b.haloCols)+core.BlockLen-1)/core.BlockLen*core.BlockLen
}

// local is one band's share of a workspace at width k: halo holds the
// band's halo entries, one landing vector per column, and y is a view
// of the band's rows of every caller destination (the band's boundaries
// are block-aligned), re-pointed by each product, so the local product
// is written where the caller reads it — no local copy, no gather; the
// views keep the last product's destinations reachable until the
// workspace's next product. buf stages one boundary run of one column
// between its verified read and the re-encoding write, and out
// assembles one halo block per column.
type local struct {
	halo *core.MultiVector
	y    core.MultiVector
	buf  []float64
	out  [][core.BlockLen]float64
}

// workspace is one in-flight product's per-band operands. Workspaces are
// pooled per width so concurrent callers (many solve jobs sharing one
// cached operator) never contend on buffers; the width-1 primary
// persists for the operator's lifetime and is the resident memory halo
// fault campaigns corrupt.
type workspace []local

// sources is one product's dense decode: every band's k columns of
// [interior | pad | halo], sliced from one flat buffer, band bi's
// columns at cols[bi*k:(bi+1)*k]. It belongs to one product at a time
// and comes from sourcePool, so an operator's resident memory is its
// matrices and its landing vectors, as a format's is its storage.
type sources struct {
	flat []float64
	cols [][]float64
}

var sourcePool = sync.Pool{New: func() any { return new(sources) }}

// getSources draws a width-k decode buffer sized for o's bands.
func (o *Operator) getSources(k int) *sources {
	s := sourcePool.Get().(*sources)
	n := 0
	for _, b := range o.bands {
		n += k * b.span()
	}
	if cap(s.flat) < n {
		s.flat = make([]float64, n)
	}
	s.cols = s.cols[:0]
	off := 0
	for _, b := range o.bands {
		for range k {
			s.cols = append(s.cols, s.flat[off:off+b.span()])
			off += b.span()
		}
	}
	return s
}

// Operator is a row-sharded protected operator: a core.Shell over its
// own core.Layout. The shell writes the core.ProtectedMatrix contract —
// shape, counters, read mode, and the one sweep counter whose check
// interval every band follows — and Product runs the bulk-synchronous
// interior-decode/exchange/stream pipeline across per-shard goroutines.
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
	// exposes its landing vectors for fault injection); free holds one LIFO pool
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
		l.halo = core.NewMultiVector(len(b.haloCols), k, o.opt.VectorScheme)
		l.halo.SetCRCBackend(o.opt.Config.Backend)
		l.halo.SetCounters(o.Counters())
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
	k := ws[0].halo.K()
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
// decomposition the solver recovery controller (internal/solvers) uses
// to checkpoint and restore the live solve vectors per band, on
// per-band goroutines, instead of through one global sweep, and the
// solvers' banded inner products reduce over. Both rely on the
// boundaries being aligned to the protection codeword block: no two
// bands ever share a codeword of a global vector.
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

// Local exposes shard i's halo landing vector in the operator's
// resident primary workspace: element k is the band's k-th halo column,
// ascending, the buffer the exchange packs into and the band reads back
// (single-threaded callers always draw the primary). Fault campaigns
// flip bits in its raw storage between the exchange and the band's read
// to model corruption striking a shard's memory in flight.
func (o *Operator) Local(i int) *core.Vector { return o.primary[i].halo.Col(0) }

// SetPhaseHook installs a function observing Apply's phase barriers
// (fault campaigns corrupt shard state mid-product through it). It must
// be set before the operator is shared. Each Apply fires the hook at
// its own barriers with no lock held — a barrier joins only that call's
// band goroutines — so a hook mutating shard state assumes a single
// in-flight Apply, the shape every campaign has.
func (o *Operator) SetPhaseHook(fn func(Phase)) { o.hook = fn }

// SetCounters attaches a statistics accumulator to the composite, every
// shard's matrix and every workspace landing vector, satisfying
// core.ProtectedMatrix. Must be called before the operator is shared
// (workspaces allocated for later concurrent Apply calls inherit the
// accumulator). The interior decode and the pack read the caller's
// sources, and the local products write views of the caller's
// destinations: those count into the caller's counters.
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
				l.halo.SetCounters(c)
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
// engine asks a banded operator for. A band's interior is decoded from
// x itself, so its answer is x's whatever the landing vectors' scheme.
func (o *Operator) pendingDots(dsts, xs []*core.Vector) []*core.DotRequest {
	var reqs []*core.DotRequest
	for j, dst := range dsts {
		r := dst.PendingDot(xs[j])
		if r == nil || !o.reducesAs(r.Options()) {
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
// for every j through three bulk-synchronous phases per band, each band's
// k source columns one pooled dense buffer of [interior | pad | halo]:
//
//   - PhaseScatter: the band decodes its own block span of every xs[j]
//     into its buffer's interior — a verified read of the caller's
//     storage, or, with an update pending on xs[j] (core.UpdateRequest),
//     the update's pass over the span, which writes the new x in place
//     and keeps it; the update is then detached once.
//   - PhaseExchange: the band packs its halo from the owners' spans of
//     the same xs[j] and re-encodes it into its landing vectors.
//   - PhaseLocal: the band reads its landing vectors into its buffer's
//     halo and runs its format's stream (Stream), written through a view
//     into the band's rows of dsts.
//
// Width is the only parameter; column j sees exactly the reads, writes
// and checks a width-1 call would give it. Every band's stream runs
// under the one Sweep the shell decided, so every band full-checks on
// the same sweeps. Without sw.Sources every read copies masked payload
// with no decode, no commit and no check accounting, and the local
// products run unverified too. dst may be x: every read of x is done by
// the exchange barrier, before any stream writes. workers is the total
// kernel goroutine budget, divided across shards (each shard always gets
// its own goroutine). A dot request pending on a destination
// (pendingDots) is passed down to every band's stream, which answers it
// over the band's interior from its own buffer, and the band answers
// reduce through Dot's tree.
func (o *Operator) Product(dsts, xs []*core.Vector, workers int, sw core.Sweep) error {
	reqs := o.pendingDots(dsts, xs)
	ws := o.getWorkspace(len(xs))
	defer o.putWorkspace(ws)
	src := o.getSources(len(xs))
	defer sourcePool.Put(src)
	k, localWorkers := len(xs), max(workers/len(o.bands), 1)
	// Each block of the caller's x has one interior reader and each
	// landing vector one reader, so their repairs commit (xMode); a halo
	// source block may be read by several shards at once, so its repairs
	// are used and counted but not written.
	xMode, haloMode := core.ModeExclusive, core.ModeShared
	if !sw.Sources {
		xMode, haloMode = core.ModeUnverified, core.ModeUnverified
	}

	// Band boundaries are block-aligned, so shards never touch a shared
	// codeword of x.
	err := o.forBands(func(lo, hi int) error {
		for bi := lo; bi < hi; bi++ {
			b := o.bands[bi]
			b0, b1 := b.r0/core.BlockLen, b.r0/core.BlockLen+b.blocks()
			for j, x := range xs {
				in := src.cols[bi*k+j][:b.interiorPad]
				var err error
				if u := x.PendingUpdate(); u != nil {
					err = u.RunKept(b0, b1, in)
				} else {
					err = x.Read(b0, b1, in, xMode)
				}
				if err != nil {
					return fmt.Errorf("shard: interior of shard %d: %w", bi, err)
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

	if err := o.forBands(func(lo, hi int) error {
		for bi := lo; bi < hi; bi++ {
			if err := o.packHalo(xs, &ws[bi], bi, haloMode); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	o.fire(PhaseExchange)

	// Each band reads its landing vectors into the halo of its buffer and
	// streams. Band bi's request for column j is bandReqs[bi*k+j];
	// allocated per call, so the operator holds no product state.
	var bandReqs []core.DotRequest
	if reqs != nil {
		bandReqs = make([]core.DotRequest, len(o.bands)*k)
	}
	err = o.forBands(func(lo, hi int) error {
		for bi := lo; bi < hi; bi++ {
			b, l, xbufs := o.bands[bi], &ws[bi], src.cols[bi*k:(bi+1)*k]
			for j, h := range l.halo.Cols() {
				if err := h.Read(0, h.Blocks(), xbufs[j][b.interiorPad:], xMode); err != nil {
					return fmt.Errorf("shard: halo of shard %d: %w", bi, err)
				}
			}
			l.y.View(dsts, b.r0/core.BlockLen, b.rows())
			for j, r := range reqs {
				if r != nil {
					bandReqs[bi*k+j].Ask(l.y.Col(j), xs[j], bandDot)
				}
			}
			ep := core.StartDots(l.y.Cols(), xs, xbufs)
			if err := ep.Finish(b.m.Stream(l.y.Cols(), xbufs, localWorkers, sw, ep)); err != nil {
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

// packHalo fills shard bi's landing vectors through the batched pack
// path: the ascending halo columns are split into runs owned by one
// shard and spanning a contiguous range of blocks of x, each run is
// grown once and its blocks read once per column in a single batched
// call, and the entries are re-encoded as they land, so corruption in
// the caller's x is caught at the boundary and corruption in the
// landing vector by the band's read.
func (o *Operator) packHalo(xs []*core.Vector, l *local, bi int, mode core.ReadMode) error {
	b := o.bands[bi]
	n := len(b.haloCols)
	clear(l.out)
	for k := 0; k < n; {
		// Grow a run: same owner, and each column's block at most one
		// beyond the last, so every block in [blk0, blkEnd] holds at
		// least one needed entry — the batched read never verifies a
		// block the per-block path would have skipped.
		ow := o.owner(int(b.haloCols[k]))
		r1 := o.bands[ow].r1
		blk0 := int(b.haloCols[k]) / core.BlockLen
		end, blkEnd := k+1, blk0
		for end < n && int(b.haloCols[end]) < r1 {
			blk := int(b.haloCols[end]) / core.BlockLen
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
		for j, x := range xs {
			if err := x.Read(blk0, blkEnd+1, l.buf[:need], mode); err != nil {
				return fmt.Errorf("shard: pack shard %d for shard %d: %w", ow, bi, err)
			}
			out := &l.out[j]
			for c := k; c < end; c++ {
				out[c%core.BlockLen] = l.buf[int(b.haloCols[c])-blk0*core.BlockLen]
				if c%core.BlockLen == core.BlockLen-1 {
					l.halo.Col(j).WriteBlock(c/core.BlockLen, out)
					*out = [core.BlockLen]float64{}
				}
			}
		}
		k = end
	}
	if n%core.BlockLen != 0 {
		for j := range l.out {
			l.halo.Col(j).WriteBlock((n-1)/core.BlockLen, &l.out[j])
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
// damage is counted. The landing vectors need no patrol: every product
// rewrites them from checked data before its band reads them, so
// resident corruption there is overwritten.
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
