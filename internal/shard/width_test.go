package shard

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
)

// batchInputs builds k deterministic unprotected columns and their
// products under the unprotected source.
func batchInputs(t *testing.T, plain *csr.Matrix, k int) (x *core.MultiVector, want [][]float64) {
	t.Helper()
	x = wrapColumns(t, widthColumns(int(plain.Cols32()), k, core.None))
	want = make([][]float64, k)
	for j := range want {
		want[j] = make([]float64, plain.Rows())
		plain.SpMV(want[j], decode(t, x.Col(j)))
	}
	return x, want
}

// TestShardedApplyBatchMatchesApply: the batched bulk-synchronous
// pipeline — scatter, k-column halo exchange, per-format batched local
// kernels into views of the destinations — is bit-identical to k independent Apply calls for
// every local format. A second pass over the same operator reuses the
// pooled batch workspace.
func TestShardedApplyBatchMatchesApply(t *testing.T) {
	for _, f := range op.Formats {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v_workers=%d", f, workers), func(t *testing.T) {
				plain := generalMatrix(t, 60)
				const k = 3
				x, want := batchInputs(t, plain, k)

				o, err := New(plain, Options{
					Shards: 3,
					Format: f,
					Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64},
				})
				if err != nil {
					t.Fatal(err)
				}
				var c core.Counters
				o.SetCounters(&c)

				// Two passes: the second pulls the pooled workspace back
				// out instead of allocating a fresh one.
				for pass := 0; pass < 2; pass++ {
					dst := core.NewMultiVector(o.Rows(), k, core.None)
					if err := o.ApplyBatch(dst, x, workers); err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
					got := make([]float64, o.Rows())
					for j := 0; j < k; j++ {
						if err := dst.Col(j).CopyTo(got); err != nil {
							t.Fatal(err)
						}
						for i := range want[j] {
							if got[i] != want[j][i] {
								t.Fatalf("pass %d col %d row %d: got %v want %v (batched product diverged)",
									pass, j, i, got[i], want[j][i])
							}
						}
					}
				}
				if c.Checks() == 0 {
					t.Fatal("batched pipeline recorded no verified reads")
				}
			})
		}
	}
}

// TestShardedApplyBatchFallback is the batched counterpart of the
// sharded verify-then-stream conformance: a codeword corrupted inside
// one shard's batch-verified block must degrade to the corrective
// per-element decode (shared mode) or be repaired in place (exclusive
// mode), and in both modes every column of the composite batched
// product stays bit-exact against the unprotected reference.
func TestShardedApplyBatchFallback(t *testing.T) {
	for _, f := range op.Formats {
		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
			shared := mode == core.ModeShared
			t.Run(fmt.Sprintf("%v_shared=%v", f, shared), func(t *testing.T) {
				plain := generalMatrix(t, 60)
				const k = 3
				x, want := batchInputs(t, plain, k)

				o, err := New(plain, Options{
					Shards: 3,
					Format: f,
					Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64},
				})
				if err != nil {
					t.Fatal(err)
				}
				var c core.Counters
				o.SetCounters(&c)
				o.SetReadMode(mode)

				v := o.Shard(1).RawVals()
				i := len(v) / 2
				v[i] = math.Float64frombits(math.Float64bits(v[i]) ^ 1<<40)

				dst := core.NewMultiVector(o.Rows(), k, core.None)
				if err := o.ApplyBatch(dst, x, 3); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, o.Rows())
				for j := 0; j < k; j++ {
					if err := dst.Col(j).CopyTo(got); err != nil {
						t.Fatal(err)
					}
					for r := range want[j] {
						if got[r] != want[j][r] {
							t.Fatalf("col %d row %d: got %v want %v (fallback diverged from reference)",
								j, r, got[r], want[j][r])
						}
					}
				}
				if c.Corrected() == 0 {
					t.Fatal("no correction recorded for the injected flip")
				}

				o.SetReadMode(core.ModeExclusive)
				corrected, err := o.Scrub()
				if err != nil {
					t.Fatalf("scrub: %v", err)
				}
				if shared && corrected == 0 {
					t.Fatal("shared ApplyBatch committed a repair to shard storage")
				}
				if !shared && corrected != 0 {
					t.Fatalf("exclusive ApplyBatch left the fault in shard storage (%d late corrections)", corrected)
				}
			})
		}
	}
}

// TestShardedApplyBatchShapeErrors: dimension and width mismatches are
// rejected before the pipeline starts.
func TestShardedApplyBatchShapeErrors(t *testing.T) {
	plain := generalMatrix(t, 40)
	o, err := New(plain, Options{Shards: 2, Config: op.Config{Scheme: core.SECDED64}})
	if err != nil {
		t.Fatal(err)
	}
	x := core.NewMultiVector(int(plain.Cols32()), 2, core.None)
	short := core.NewMultiVector(o.Rows()+4, 2, core.None)
	if err := o.ApplyBatch(short, x, 1); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	wide := core.NewMultiVector(o.Rows(), 3, core.None)
	if err := o.ApplyBatch(wide, x, 1); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

// widthColumns builds k deterministic columns of length n under scheme s.
func widthColumns(n, k int, s core.Scheme) []*core.Vector {
	cols := make([]*core.Vector, k)
	for j := range cols {
		xs := refVector(n)
		for i := range xs {
			xs[i] += float64(j) / 4
		}
		cols[j] = core.VectorFromSlice(xs, s)
	}
	return cols
}

func wrapColumns(t *testing.T, cols []*core.Vector) *core.MultiVector {
	t.Helper()
	mv, err := core.WrapMultiVector(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

func decode(t *testing.T, v *core.Vector) []float64 {
	t.Helper()
	out := make([]float64, v.Len())
	if err := v.CopyTo(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// chainMatrix is a tridiagonal operator of three vector blocks that
// three shards split into single-block bands. With decoupled set, the
// rows of block 0 couple only to each other, so band 0 has an empty halo;
// otherwise row 0 and row 2b+1 (b = core.BlockLen) also reach into band
// 1's only block, which then has two readers.
func chainMatrix(t *testing.T, decoupled bool) *csr.Matrix {
	t.Helper()
	const b = core.BlockLen
	const n = 3 * b
	var es []csr.Entry
	for i := 0; i < n; i++ {
		es = append(es, csr.Entry{Row: i, Col: i, Val: 4 + float64(i)/8})
		for _, c := range []int{i - 1, i + 1} {
			if c < 0 || c >= n || (decoupled && (i < b) != (c < b)) {
				continue
			}
			es = append(es, csr.Entry{Row: i, Col: c, Val: -1 - float64(i+c)/16})
		}
	}
	if !decoupled {
		es = append(es, csr.Entry{Row: 0, Col: b + 1, Val: 0.5}, csr.Entry{Row: 2*b + 1, Col: b + 2, Val: 0.25})
	}
	m, err := csr.New(n, n, es)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestWidthParity: width is the only parameter of the one pipeline, so
// column j of a width-k product is bit-identical to a width-1 product of
// that column, the vector-side checks are k times a width-1 call's and
// the matrix-side checks are paid once — for every format and scheme,
// one to three shards, single-block bands and a band with no halo.
func TestWidthParity(t *testing.T) {
	type shape struct {
		name   string
		plain  *csr.Matrix
		shards int
	}
	shapes := []shape{{"chain_emptyhalo_3", chainMatrix(t, true), 3}, {"chain_shared_3", chainMatrix(t, false), 3}}
	for shards := 1; shards <= 3; shards++ {
		shapes = append(shapes, shape{fmt.Sprintf("general_%d", shards), generalMatrix(t, 60), shards})
	}
	for _, sh := range shapes {
		for _, f := range op.Formats {
			for _, s := range []core.Scheme{core.None, core.SECDED64, core.CRC32C} {
				t.Run(fmt.Sprintf("%s_%v_%v", sh.name, f, s), func(t *testing.T) {
					build := func(vs core.Scheme) (*Operator, *core.Counters) {
						o, err := New(sh.plain, Options{
							Shards: sh.shards, Format: f, VectorScheme: vs,
							Config: op.Config{Scheme: s, RowPtrScheme: s},
						})
						if err != nil {
							t.Fatal(err)
						}
						if o.Shards() != sh.shards {
							t.Fatalf("%d shards, want %d", o.Shards(), sh.shards)
						}
						c := &core.Counters{}
						o.SetCounters(c)
						return o, c
					}
					n := sh.plain.Rows()
					// Matrix-side checks alone: unprotected vectors check nothing.
					o, c := build(core.None)
					if err := o.Apply(core.NewVector(n, core.None), widthColumns(n, 1, core.None)[0], 1); err != nil {
						t.Fatal(err)
					}
					matrixChecks := c.Checks()

					for _, k := range []int{1, 3} {
						xs := widthColumns(n, k, s)
						single := make([][]float64, k)
						var one uint64
						for j, x := range xs {
							o, c := build(s)
							dst := core.NewVector(n, s)
							x.SetCounters(c)
							dst.SetCounters(c)
							if err := o.Apply(dst, x, 1); err != nil {
								t.Fatal(err)
							}
							one = c.Checks()
							single[j] = decode(t, dst)
							if c.Corrected() != 0 || c.Detected() != 0 {
								t.Fatalf("clean product reported faults: %+v", c.Snapshot())
							}
						}
						o, c := build(s)
						dsts := widthColumns(n, k, s)
						for j := range xs {
							xs[j].SetCounters(c)
							dsts[j].SetCounters(c)
						}
						// Twice: the second call draws the pooled workspace.
						for pass := 0; pass < 2; pass++ {
							if err := o.ApplyBatch(wrapColumns(t, dsts), wrapColumns(t, xs), 1); err != nil {
								t.Fatal(err)
							}
						}
						for j := range dsts {
							got := decode(t, dsts[j])
							for i := range got {
								if math.Float64bits(got[i]) != math.Float64bits(single[j][i]) {
									t.Fatalf("k=%d col %d row %d: batch %v, single %v", k, j, i, got[i], single[j][i])
								}
							}
						}
						// Two passes plus the k decodes just made (the same
						// per-column read a width-1 result gets).
						decodes := uint64(k) * uint64(dsts[0].Blocks()) * uint64(core.BlockLen/max(s.VecGroup(), 1))
						if s == core.None {
							decodes = 0
						}
						want := 2*(matrixChecks+uint64(k)*(one-matrixChecks)) + decodes
						if c.Checks() != want || c.Corrected() != 0 || c.Detected() != 0 {
							t.Fatalf("k=%d: counters %+v, want %d checks (matrix %d once, %d per column)",
								k, c.Snapshot(), want, matrixChecks, one-matrixChecks)
						}
					}
				})
			}
		}
	}
}

// TestWidthFaultParity strikes one column of a product with one flip
// (corrected in flight) and with one more than the scheme can correct
// (detected: two under SECDED64, three under CRC32C) at each place the
// pipeline reads protected vector storage — the caller's column as its
// band decodes its interior ("scatter", struck before the call), a
// block of the caller's column that two other shards pack their halos
// from ("halo", struck after the interior decode) and a band's landing
// vector between the pack and the band's read ("landing") — and
// requires the struck column's delivered values, the struck storage
// afterwards, the corrected/detected counts and the error's prefix to be
// the same at width 3 as at width 1. The pack's read is shared: the
// flip is still in the caller's storage at the exchange barrier and
// after the call, for the column's next exclusive reader to repair. The
// interior decode and the landing read are their storage's one reader
// and commit. The fourth site, "gather", is where the band products
// land: the caller's destination, which the pipeline writes through a
// view without reading. A flip struck into its band rows before the call
// is overwritten by the product — no error, nothing corrected or
// detected, the destination exactly the clean product.
func TestWidthFaultParity(t *testing.T) {
	plain := chainMatrix(t, false)
	n := plain.Rows()
	type outcome struct {
		err         string
		dst         []float64
		atExchange  []uint64 // struck storage at the exchange barrier (halo site)
		after       []uint64 // struck storage when the call returns
		clean       []uint64 // the unstruck product (gather site)
		fixed, seen uint64
	}
	sites := []struct {
		name, prefix string
		// word is the struck word; repaired says a single flip there is
		// gone from storage after the call.
		word     int
		repaired bool
	}{
		{"scatter", "shard: interior of shard 1: ", core.BlockLen + 2, true},    // a word of band 1's rows
		{"halo", "shard: pack shard 1 for shard 0: ", core.BlockLen + 1, false}, // packed by bands 0 and 2
		{"landing", "shard: halo of shard 0: ", 1, true},                        // band 0's halo column 9
		{"gather", "", 2*core.BlockLen + 1, false},                              // a word of band 2's rows
	}
	for _, f := range op.Formats {
		for _, s := range []core.Scheme{core.SECDED64, core.CRC32C} {
			for _, site := range sites {
				for _, detect := range []bool{false, true} {
					t.Run(fmt.Sprintf("%v_%v_%s_detect=%t", f, s, site.name, detect), func(t *testing.T) {
						mask := uint64(1) << 33
						if detect {
							mask |= 1 << 41
							if s == core.CRC32C {
								mask |= 1 << 52
							}
						}
						run := func(k int) outcome {
							o, err := New(plain, Options{
								Shards: 3, Format: f, VectorScheme: s,
								Config: op.Config{Scheme: s, RowPtrScheme: s},
							})
							if err != nil {
								t.Fatal(err)
							}
							var c core.Counters
							o.SetCounters(&c)
							// Column 1 of three is the struck one; alone it is
							// the width-1 product.
							all := widthColumns(n, 3, s)
							xs, j := all[1:2], 0
							if k == 3 {
								xs, j = all, 1
							}
							dsts := widthColumns(n, k, s)
							for i := range xs {
								xs[i].SetCounters(&c)
								dsts[i].SetCounters(&c)
							}
							call := func() error {
								if k == 1 {
									return o.Apply(dsts[0], xs[0], 1)
								}
								return o.ApplyBatch(wrapColumns(t, dsts), wrapColumns(t, xs), 1)
							}
							// A warm-up leaves the workspace the struck call
							// will draw on top of its width's pool.
							if err := call(); err != nil {
								t.Fatal(err)
							}
							ws := o.free[k][len(o.free[k])-1]
							var out outcome
							var struck *core.Vector
							switch site.name {
							case "scatter":
								struck = xs[j]
								struck.Raw()[site.word] ^= mask
							case "halo":
								struck = xs[j]
								o.SetPhaseHook(func(p Phase) {
									switch p {
									case PhaseScatter:
										struck.Raw()[site.word] ^= mask
									case PhaseExchange:
										out.atExchange = append([]uint64(nil), struck.Raw()...)
									}
								})
							case "landing":
								struck = ws[0].halo.Col(j)
								o.SetPhaseHook(func(p Phase) {
									if p == PhaseExchange {
										struck.Raw()[site.word] ^= mask
									}
								})
							case "gather":
								struck = dsts[j]
								out.clean = append([]uint64(nil), struck.Raw()...)
								struck.Raw()[site.word] ^= mask
							}
							before := c.Snapshot()
							if err := call(); err != nil {
								out.err = err.Error()
								var fe *core.FaultError
								if !errors.As(err, &fe) {
									t.Fatalf("k=%d: not a FaultError: %v", k, err)
								}
							} else {
								out.dst = decode(t, dsts[j])
							}
							out.after = append([]uint64(nil), struck.Raw()...)
							out.fixed, out.seen = c.Corrected()-before.Corrected, c.Detected()-before.Detected
							return out
						}
						one, three := run(1), run(3)
						if !reflect.DeepEqual(one, three) {
							t.Fatalf("width 1 and width 3 disagree:\n  k=1 %+v\n  k=3 %+v", one, three)
						}
						if site.name == "gather" {
							if one.err != "" || one.fixed != 0 || one.seen != 0 || !reflect.DeepEqual(one.after, one.clean) {
								t.Fatalf("a flip in the destination was read, or survived the product: %+v", one)
							}
						} else if !detect {
							if one.err != "" || one.fixed == 0 || one.seen != 0 {
								t.Fatalf("single flip: %+v", one)
							}
							if site.name == "halo" && one.atExchange[site.word]&mask == 0 {
								t.Fatal("the shared halo read committed its repair")
							}
							if left := one.after[site.word]&mask != 0; left == site.repaired {
								t.Fatalf("flip left in storage after the call: %t, want %t", left, !site.repaired)
							}
						} else if !strings.HasPrefix(one.err, site.prefix) || one.seen == 0 {
							t.Fatalf("uncorrectable flips: error %q (want prefix %q), %d detected", one.err, site.prefix, one.seen)
						}
					})
				}
			}
		}
	}
}

// TestBandProductsLandInDst: each band's local product is written through
// a view straight into the band's rows of the caller's destination and is
// never read back. The view aliases dst's storage; the local phase
// verifies exactly the band matrices and one read of every band's halo
// landing vector — its interior was decoded from x before the exchange
// and is not checked again; the destination's own counters see no read; and a
// flip struck into dst after the call is left for the next verified
// reader, which corrects one and detects one more than the scheme can
// correct.
func TestBandProductsLandInDst(t *testing.T) {
	plain := generalMatrix(t, 60)
	n := plain.Rows()
	for _, f := range op.Formats {
		for _, s := range []core.Scheme{core.SECDED64, core.CRC32C} {
			t.Run(fmt.Sprintf("%v_%v", f, s), func(t *testing.T) {
				build := func(vs core.Scheme, c *core.Counters) *Operator {
					o, err := New(plain, Options{
						Shards: 3, Format: f, VectorScheme: vs,
						Config: op.Config{Scheme: s, RowPtrScheme: s},
					})
					if err != nil {
						t.Fatal(err)
					}
					o.SetCounters(c)
					return o
				}
				var mc core.Counters
				if err := build(core.None, &mc).Apply(core.NewVector(n, core.None), widthColumns(n, 1, core.None)[0], 1); err != nil {
					t.Fatal(err)
				}

				var oc, dc core.Counters
				o := build(s, &oc)
				x, dst := widthColumns(n, 1, s)[0], core.NewVector(n, s)
				x.SetCounters(&oc)
				dst.SetCounters(&dc)
				var atExchange uint64
				o.SetPhaseHook(func(p Phase) {
					if p == PhaseExchange {
						atExchange = oc.Checks()
					}
				})
				if err := o.Apply(dst, x, 1); err != nil {
					t.Fatal(err)
				}
				var decodes uint64
				for bi, b := range o.bands {
					l := &o.primary[bi]
					decodes += uint64(l.halo.Blocks()) * uint64(core.BlockLen/s.VecGroup())
					if l.halo.Len() != len(b.haloCols) {
						t.Fatalf("band %d's landing vector holds %d entries, want its %d halo columns", bi, l.halo.Len(), len(b.haloCols))
					}
					if &l.y.Col(0).Raw()[0] != &dst.Raw()[b.r0] {
						t.Fatalf("band %d's product is not a view of dst's rows %d..", bi, b.r0)
					}
				}
				if local := oc.Checks() - atExchange; local != mc.Checks()+decodes {
					t.Fatalf("local phase made %d checks, want %d matrix-side + %d landing-vector", local, mc.Checks(), decodes)
				}
				if dc.Snapshot() != (core.CounterSnapshot{}) {
					t.Fatalf("the product read its destination: %+v", dc.Snapshot())
				}

				clean := append([]uint64(nil), dst.Raw()...)
				want := decode(t, dst)
				k := o.bands[2].r0 + 4 // a word of the last band's first block
				dc = core.Counters{}
				dst.Raw()[k] ^= 1 << 33
				if got := decode(t, dst); !reflect.DeepEqual(got, want) || dc.Corrected() != 1 || dst.Raw()[k] != clean[k] {
					t.Fatalf("one flip in dst: corrected %d, repaired %v", dc.Corrected(), dst.Raw()[k] == clean[k])
				}
				mask := uint64(1)<<33 | 1<<41
				if s == core.CRC32C {
					mask |= 1 << 52
				}
				dst.Raw()[k] ^= mask
				var fe *core.FaultError
				if err := dst.CopyTo(make([]float64, n)); !errors.As(err, &fe) || dc.Detected() != 1 {
					t.Fatalf("uncorrectable flips in dst: %v, detected %d", err, dc.Detected())
				}
			})
		}
	}
}

// TestApplyInPlace: dst may be x. The scatter has read every block of x
// before any band writes its product, so Apply(v, v) — and ApplyBatch
// with one multivector as both operands — leaves exactly the words a
// product into a separate destination writes, for every format, scheme
// and shard count.
func TestApplyInPlace(t *testing.T) {
	plain := generalMatrix(t, 60)
	n := plain.Rows()
	for _, f := range op.Formats {
		for _, s := range []core.Scheme{core.None, core.SECDED64, core.CRC32C} {
			for shards := 1; shards <= 3; shards++ {
				o, err := New(plain, Options{
					Shards: shards, Format: f, VectorScheme: s,
					Config: op.Config{Scheme: s, RowPtrScheme: s},
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v %v shards=%d", f, s, shards)
				xs := widthColumns(n, 3, s)
				want := make([]*core.Vector, len(xs))
				for j, x := range xs {
					want[j] = core.NewVector(n, s)
					if err := o.Apply(want[j], x, 1); err != nil {
						t.Fatal(err)
					}
				}
				v := xs[0].Clone()
				if err := o.Apply(v, v, 1); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(v.Raw(), want[0].Raw()) {
					t.Fatalf("%s: Apply(v, v) differs from Apply(dst, v)", name)
				}
				mv := wrapColumns(t, xs)
				if err := o.ApplyBatch(mv, mv, 1); err != nil {
					t.Fatal(err)
				}
				for j := range xs {
					if !reflect.DeepEqual(xs[j].Raw(), want[j].Raw()) {
						t.Fatalf("%s: ApplyBatch(v, v) column %d differs from Apply(dst, v)", name, j)
					}
				}
			}
		}
	}
}

// TestPhaseOrder: every entry point is the one pipeline, so each fires
// the three phases once per call, in order. The values are part of the
// contract: callers index per-phase arrays by them.
func TestPhaseOrder(t *testing.T) {
	if PhaseScatter != 0 || PhaseExchange != 1 || PhaseLocal != 2 {
		t.Fatalf("phase values %d, %d, %d; want 0, 1, 2", PhaseScatter, PhaseExchange, PhaseLocal)
	}
	plain := generalMatrix(t, 60)
	n := plain.Rows()
	o, err := New(plain, Options{Shards: 3, VectorScheme: core.SECDED64, Config: op.Config{Scheme: core.SECDED64}})
	if err != nil {
		t.Fatal(err)
	}
	var fired []Phase
	o.SetPhaseHook(func(p Phase) { fired = append(fired, p) })
	xs, dsts := widthColumns(n, 3, core.SECDED64), widthColumns(n, 3, core.SECDED64)
	for name, call := range map[string]func() error{
		"Apply":           func() error { return o.Apply(dsts[0], xs[0], 1) },
		"ApplyUnverified": func() error { return o.ApplyUnverified(dsts[0], xs[0], 1) },
		"ApplyBatch":      func() error { return o.ApplyBatch(wrapColumns(t, dsts), wrapColumns(t, xs), 1) },
	} {
		fired = fired[:0]
		if err := call(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fired, []Phase{PhaseScatter, PhaseExchange, PhaseLocal}) {
			t.Errorf("%s fired %v, want [scatter exchange local]", name, fired)
		}
	}
}

// TestApplyUnverifiedTouchesNothing: the unverified pipeline reads
// masked payload only, so it counts nothing and writes nothing but dst
// and its workspace — flips resident in the caller's x and in a shard's
// matrix are still there afterwards.
func TestApplyUnverifiedTouchesNothing(t *testing.T) {
	plain := generalMatrix(t, 60)
	n := plain.Rows()
	for _, f := range op.Formats {
		for _, s := range []core.Scheme{core.SECDED64, core.CRC32C} {
			o, err := New(plain, Options{
				Shards: 3, Format: f, VectorScheme: s,
				Config: op.Config{Scheme: s, RowPtrScheme: s},
			})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			o.SetCounters(&c)
			x, dst := widthColumns(n, 1, s)[0], core.NewVector(n, s)
			x.SetCounters(&c)
			dst.SetCounters(&c)
			x.Raw()[7] ^= 1 << 33
			vals := o.Shard(1).RawVals()
			vals[len(vals)/2] = math.Float64frombits(math.Float64bits(vals[len(vals)/2]) ^ 1<<40)

			xRaw := append([]uint64(nil), x.Raw()...)
			var mVals [][]float64
			var mCols [][]uint32
			for i := 0; i < o.Shards(); i++ {
				mVals = append(mVals, append([]float64(nil), o.Shard(i).RawVals()...))
				mCols = append(mCols, append([]uint32(nil), o.Shard(i).RawCols()...))
			}
			if err := o.ApplyUnverified(dst, x, 1); err != nil {
				t.Fatalf("%v %v: %v", f, s, err)
			}
			if c.Snapshot() != (core.CounterSnapshot{}) {
				t.Errorf("%v %v: unverified product counted %+v", f, s, c.Snapshot())
			}
			if !reflect.DeepEqual(xRaw, x.Raw()) {
				t.Errorf("%v %v: unverified product wrote the caller's x", f, s)
			}
			for i := 0; i < o.Shards(); i++ {
				if !reflect.DeepEqual(mVals[i], o.Shard(i).RawVals()) || !reflect.DeepEqual(mCols[i], o.Shard(i).RawCols()) {
					t.Errorf("%v %v: unverified product wrote shard %d's matrix", f, s, i)
				}
			}
		}
	}
}
