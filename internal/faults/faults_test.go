package faults

import (
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// The paper's section IV capability matrix, asserted per scheme:
//
//	SED       detects 1 flip (and any odd count), corrects none
//	SECDED    corrects 1 flip, detects 2 flips per codeword
//	CRC32C    corrects 1-2 flips, detects up to 5 flips per codeword (HD 6)

func runCampaign(t *testing.T, cfg CampaignConfig) CampaignResult {
	t.Helper()
	if cfg.Trials == 0 {
		cfg.Trials = 120
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign %+v: %v", cfg, err)
	}
	return res
}

func TestVectorSingleFlipCapability(t *testing.T) {
	for _, s := range core.ProtectingSchemes {
		res := runCampaign(t, CampaignConfig{
			Scheme: s, Structure: core.StructVector, Bits: 1, SameCodeword: true,
		})
		if res.SDC != 0 {
			t.Fatalf("%v: %d SDCs on single flips: %v", s, res.SDC, res)
		}
		if s == core.SED {
			if res.Corrected != 0 || res.Detected == 0 {
				t.Fatalf("sed should detect-only: %v", res)
			}
		} else {
			if res.Corrected != res.Total() {
				t.Fatalf("%v should correct every single flip: %v", s, res)
			}
		}
	}
}

func TestVectorDoubleFlipCapability(t *testing.T) {
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
		res := runCampaign(t, CampaignConfig{
			Scheme: s, Structure: core.StructVector, Bits: 2, SameCodeword: true,
		})
		if res.SDC != 0 {
			t.Fatalf("%v: %d SDCs on double flips: %v", s, res.SDC, res)
		}
		if s == core.CRC32C && res.Corrected != res.Total() {
			t.Fatalf("crc32c should correct double flips: %v", res)
		}
		if s != core.CRC32C && res.Detected != res.Total() {
			t.Fatalf("%v should detect double flips: %v", s, res)
		}
	}
}

func TestVectorCRCFiveFlipNoSDC(t *testing.T) {
	// HD=6 inside the codeword: up to five flips never silent.
	for bits := 3; bits <= 5; bits++ {
		res := runCampaign(t, CampaignConfig{
			Scheme: core.CRC32C, Structure: core.StructVector,
			Bits: bits, SameCodeword: true, Trials: 150,
		})
		if res.SDC != 0 {
			t.Fatalf("crc32c: %d SDCs at %d flips: %v", res.SDC, bits, res)
		}
	}
}

func TestVectorSEDEvenFlipsAreSDCs(t *testing.T) {
	res := runCampaign(t, CampaignConfig{
		Scheme: core.SED, Structure: core.StructVector, Bits: 2, SameCodeword: true,
	})
	// Parity misses every 2-flip pattern inside one codeword (a word):
	// flips either cancel in the data (benign) or corrupt silently (SDC).
	if res.Detected != 0 || res.Corrected != 0 {
		t.Fatalf("sed double flips inside a word must be invisible: %v", res)
	}
	if res.SDC == 0 {
		t.Fatalf("expected SDCs from sed double flips: %v", res)
	}
}

func TestUnprotectedEverythingIsSDC(t *testing.T) {
	res := runCampaign(t, CampaignConfig{
		Scheme: core.None, Structure: core.StructVector, Bits: 1, SameCodeword: true,
	})
	if res.Detected != 0 || res.Corrected != 0 {
		t.Fatalf("unprotected vector cannot detect or correct: %v", res)
	}
	if res.SDC == 0 {
		t.Fatalf("unprotected flips must corrupt: %v", res)
	}
}

func TestMatrixElementCampaigns(t *testing.T) {
	for _, s := range core.ProtectingSchemes {
		res := runCampaign(t, CampaignConfig{
			Scheme: s, Structure: core.StructElements, Bits: 1, SameCodeword: true,
			Trials: 60,
		})
		if res.SDC != 0 {
			t.Fatalf("%v elements: SDC on single flip: %v", s, res)
		}
		if s != core.SED && res.Corrected != res.Total() {
			t.Fatalf("%v elements: single flips not all corrected: %v", s, res)
		}
	}
}

func TestMatrixRowPtrCampaigns(t *testing.T) {
	for _, s := range core.ProtectingSchemes {
		res := runCampaign(t, CampaignConfig{
			Scheme: s, Structure: core.StructRowPtr, Bits: 1, SameCodeword: true,
			Trials: 60,
		})
		if res.SDC != 0 {
			t.Fatalf("%v rowptr: SDC on single flip: %v", s, res)
		}
	}
}

func TestScatteredFlipsAcrossStructure(t *testing.T) {
	// Flips scattered across distinct codewords are all singles, so
	// SECDED corrects them all even at high multiplicity.
	res := runCampaign(t, CampaignConfig{
		Scheme: core.SECDED64, Structure: core.StructVector,
		Bits: 6, SameCodeword: false, Size: 4096, Trials: 50,
	})
	if res.SDC != 0 {
		t.Fatalf("scattered flips caused SDCs: %v", res)
	}
	if res.Corrected < res.Total()*9/10 {
		t.Fatalf("scattered flips mostly correctable, got %v", res)
	}
}

// spanTrial is a trial with a fixed strike into one span a single fold
// checks (DESIGN.md section 45): the first block of a protected vector,
// read back, or the element span of the first output block of a
// protected CSR product. flips[i] strikes bit flips[i][1] of codeword
// flips[i][0] of the span — a vector word or pair of words, an element
// or pair of elements — the column-fault and cancelling shapes no
// random campaign draws.
func spanTrial(t *testing.T, s core.Scheme, structure core.Structure, flips [][2]int) *trial {
	t.Helper()
	in := NewInjector(7)
	if structure == core.StructVector {
		v := core.VectorFromSlice(normals(in, 32), s)
		tr := &trial{strike: func() error {
			for _, f := range flips {
				cw := 64 * s.VecGroup()
				FlipVectorBit(v, Flip{Word: f[0]*s.VecGroup() + f[1]%cw/64, Bit: f[1] % 64})
			}
			return nil
		}}
		v.SetCounters(&tr.c)
		tr.result = func() ([]float64, bool, error) {
			got := make([]float64, 32)
			return got, v.CopyTo(got) != nil, nil
		}
		return tr
	}
	m, err := newOperator(CampaignConfig{Scheme: s}, csr.Laplacian2D(16, 16), true)
	if err != nil {
		t.Fatal(err)
	}
	x := core.VectorFromSlice(normals(in, m.Cols()), core.None)
	tr := &trial{result: product(m.Rows(), func(dst *core.Vector) error { return m.Apply(dst, x, 1) })}
	m.SetCounters(&tr.c)
	tr.strike = func() error {
		for _, f := range flips {
			// Bit b of codeword k: the entry's value bits, then its
			// column index's, entry by entry.
			entry, b := f[0]*s.ElemGroup()+f[1]/96, f[1]%96
			if b < 64 {
				FlipMatrixBit(m, TargetValues, Flip{Word: entry, Bit: b})
			} else {
				FlipMatrixBit(m, TargetCols, Flip{Word: entry, Bit: b - 64})
			}
		}
		return nil
	}
	return tr
}

// TestFoldColumnAndCancellingStrikes strikes the shapes that tell a
// span-wide fold from a per-codeword check, under both SECDED widths, in
// a vector block and in a CSR output block's element span. One bit in k
// codewords of the span (k = 2 … 8: a DRAM column fault) leaves each
// struck codeword with odd weight, so the span's parity test sends it to
// the per-codeword path and every codeword comes out Corrected, as each
// would alone. The same two data bits (a high mantissa bit and an
// exponent bit, which move even the explicit zeros the five-point
// stencil stores for out-of-domain couplings, as its first row does)
// struck in two codewords cancel in the fold and pass the parity test: the span reads clean and the trial
// is an SDC, the one class DESIGN.md section 7 names, where a
// per-codeword check would report each codeword Detected.
func TestFoldColumnAndCancellingStrikes(t *testing.T) {
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128} {
		for _, st := range []core.Structure{core.StructVector, core.StructElements} {
			width := 64 * s.VecGroup()
			if st == core.StructElements {
				width = 96 * s.ElemGroup()
			}
			for _, bit := range []int{0, 7, 8, 31, 63, 64, 95, width - 1} {
				if bit >= width {
					continue
				}
				for k := 2; k <= 8; k++ {
					var flips [][2]int
					for i := 0; i < k; i++ {
						flips = append(flips, [2]int{i, bit})
					}
					tr := spanTrial(t, s, st, flips)
					o, err := runTrial(tr, nil)
					if err != nil {
						t.Fatal(err)
					}
					if o != Corrected || tr.c.Corrected() != uint64(k) || tr.c.Detected() != 0 {
						t.Fatalf("%v %v: bit %d in %d codewords: %v, corrected %d, detected %d",
							s, st, bit, k, o, tr.c.Corrected(), tr.c.Detected())
					}
				}
			}
			tr := spanTrial(t, s, st, [][2]int{{0, 50}, {0, 62}, {1, 50}, {1, 62}})
			o, err := runTrial(tr, nil)
			if err != nil {
				t.Fatal(err)
			}
			if o != SDC || tr.c.Corrected() != 0 || tr.c.Detected() != 0 {
				t.Fatalf("%v %v: bits 50 and 62 in two codewords: %v, corrected %d, detected %d, want an unflagged SDC",
					s, st, o, tr.c.Corrected(), tr.c.Detected())
			}
		}
	}
}

func TestInjectingOperatorMidSolve(t *testing.T) {
	plain := csr.Laplacian2D(12, 12)
	m, err := core.NewMatrix(plain, core.MatrixOptions{
		ElemScheme: core.SECDED64, RowPtrScheme: core.SECDED64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var c core.Counters
	m.SetCounters(&c)
	n := plain.Rows()
	b := core.NewVector(n, core.SECDED64)
	for i := 0; i < n; i++ {
		if err := b.Set(i, float64(i%13)-6); err != nil {
			t.Fatal(err)
		}
	}
	x := core.NewVector(n, core.SECDED64)

	op := &InjectingOperator{
		Op:       solvers.MatrixOperator{M: m},
		InjectAt: 3,
		Inject: func() {
			FlipMatrixBit(m, TargetValues, Flip{Word: 100, Bit: 17})
		},
	}
	res, err := solvers.CG(op, x, b, solvers.Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("mid-solve single flip should be transparent: %v", err)
	}
	if !res.Converged {
		t.Fatal("solve did not converge")
	}
	if c.Corrected() == 0 {
		t.Fatal("mid-solve flip was not corrected")
	}
}

func TestInjectingOperatorUncorrectableMidSolve(t *testing.T) {
	plain := csr.Laplacian2D(12, 12)
	m, err := core.NewMatrix(plain, core.MatrixOptions{
		ElemScheme: core.SED, RowPtrScheme: core.SED,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := plain.Rows()
	b := core.NewVector(n, core.None)
	for i := 0; i < n; i++ {
		if err := b.Set(i, float64(i%7)-3); err != nil {
			t.Fatal(err)
		}
	}
	x := core.NewVector(n, core.None)
	op := &InjectingOperator{
		Op:       solvers.MatrixOperator{M: m},
		InjectAt: 2,
		Inject: func() {
			FlipMatrixBit(m, TargetValues, Flip{Word: 50, Bit: 33})
		},
	}
	_, err = solvers.CG(op, x, b, solvers.Options{Tol: 1e-10})
	if !solvers.IsFault(err) {
		t.Fatalf("sed mid-solve flip should be a detected fault: %v", err)
	}
}

// TestInjectingOperatorKeepsContract: wrapping an operator must not
// change which products a solver runs. Through the wrapper, selective
// FGMRES still runs its inner solve unverified — the unwrapped selective
// count of matrix checks, not the full-reliability count — and a width-4
// BlockCG still makes one batched application per iteration, which
// InjectAt counts like any other.
func TestInjectingOperatorKeepsContract(t *testing.T) {
	protect := func(plain *csr.Matrix) (*core.Matrix, *core.Counters) {
		m, err := core.NewMatrix(plain, core.MatrixOptions{
			ElemScheme: core.SECDED64, RowPtrScheme: core.SECDED64,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := new(core.Counters)
		m.SetCounters(c)
		return m, c
	}
	rhs := func(n int) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%7) - 3
		}
		return b
	}

	t.Run("selective_fgmres", func(t *testing.T) {
		plain := csr.ConvectionDiffusion2D(8, 8, 1, 0.5)
		checks := func(wrap bool, rel solvers.Reliability) uint64 {
			m, c := protect(plain)
			var a solvers.Operator = solvers.MatrixOperator{M: m}
			if wrap {
				a = &InjectingOperator{Op: a}
			}
			x := core.NewVector(plain.Rows(), core.SECDED64)
			b := core.VectorFromSlice(rhs(plain.Rows()), core.SECDED64)
			res, err := solvers.FGMRES(a, x, b, solvers.Options{
				Tol: 1e-8, InnerSteps: 4, Reliability: rel,
			})
			if err != nil || !res.Converged {
				t.Fatalf("wrap=%v %v: %v %+v", wrap, rel, err, res)
			}
			return c.Checks()
		}
		selective := checks(false, solvers.ReliabilitySelective)
		full := checks(false, solvers.ReliabilityFull)
		if selective >= full {
			t.Fatalf("selective %d checks not below full %d", selective, full)
		}
		if got := checks(true, solvers.ReliabilitySelective); got != selective {
			t.Fatalf("wrapped selective FGMRES made %d matrix checks, unwrapped %d (full %d)",
				got, selective, full)
		}
	})

	t.Run("blockcg", func(t *testing.T) {
		plain := csr.Laplacian2D(8, 8)
		n, k := plain.Rows(), 4
		// solve runs a width-k BlockCG, through an InjectingOperator that
		// flips one matrix bit before application injectAt when wrapped.
		solve := func(wrap bool, injectAt int) (res solvers.BatchResult, calls int, c *core.Counters) {
			m, c := protect(plain)
			cols := make([]*core.Vector, k)
			for j := range cols {
				b := rhs(n)
				b[j] += 1
				cols[j] = core.VectorFromSlice(b, core.SECDED64)
			}
			b, err := core.WrapMultiVector(cols...)
			if err != nil {
				t.Fatal(err)
			}
			var a solvers.Operator = solvers.MatrixOperator{M: m}
			inj := &InjectingOperator{Op: a, InjectAt: injectAt, Inject: func() {
				FlipMatrixBit(m, TargetValues, Flip{Word: 40, Bit: 17})
			}}
			if wrap {
				a = inj
			}
			res, err = solvers.BlockCG(a, core.NewMultiVector(n, k, core.SECDED64), b, solvers.Options{Tol: 1e-10})
			if err != nil || !res.Converged {
				t.Fatalf("wrap=%v: %v %+v", wrap, err, res.Result)
			}
			return res, inj.calls, c
		}
		plainRes, _, plainC := solve(false, -1)
		res, calls, c := solve(true, -1)
		// One product forms the initial residual, then one per iteration.
		if want := res.Iterations + 1; calls != want {
			t.Fatalf("wrapped BlockCG made %d applications over %d iterations, want %d",
				calls, res.Iterations, want)
		}
		if res.Iterations != plainRes.Iterations || c.Checks() != plainC.Checks() {
			t.Fatalf("wrapped BlockCG: %d iterations, %d checks; unwrapped %d, %d",
				res.Iterations, c.Checks(), plainRes.Iterations, plainC.Checks())
		}
		// InjectAt counts batched applications: a single flip planted
		// before the third product is corrected by it.
		if _, calls, c = solve(true, 2); calls <= 2 || c.Corrected() == 0 {
			t.Fatalf("injection at ApplyBatch 2 of %d: corrected %d", calls, c.Corrected())
		}
	})

	t.Run("sharded_cg", func(t *testing.T) {
		// Through the wrapper the engine still finds the sharded
		// operator's bands, so inner products and fused tails reduce in
		// its tree and every bit of x matches the unwrapped solve (a flat
		// reduction converges as fast and differs in 52 of 256 entries).
		plain := csr.Laplacian2D(16, 16)
		n := plain.Rows()
		solve := func(wrap bool) ([]float64, solvers.Result, int) {
			so, err := shard.New(plain, shard.Options{
				Shards: 3, Format: op.CSR, VectorScheme: core.SECDED64,
				Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64},
			})
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, n)
			for k := range b {
				b[k] = math.Sin(float64(k))
			}
			var a solvers.Operator = solvers.MatrixOperator{M: so}
			inj := &InjectingOperator{Op: a, InjectAt: -1}
			if wrap {
				a = inj
			}
			x := core.NewVector(n, core.SECDED64)
			res, err := solvers.CG(a, x, core.VectorFromSlice(b, core.SECDED64), solvers.Options{Tol: 1e-10})
			if err != nil || !res.Converged {
				t.Fatalf("wrap=%v: %v %+v", wrap, err, res)
			}
			got := make([]float64, n)
			if err := x.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			return got, res, inj.calls
		}
		want, plainRes, _ := solve(false)
		got, res, calls := solve(true)
		if res.Iterations != plainRes.Iterations {
			t.Fatalf("wrapped CG %d iterations, unwrapped %d", res.Iterations, plainRes.Iterations)
		}
		differ := 0
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				differ++
			}
		}
		if differ != 0 {
			t.Fatalf("wrapped sharded CG: %d of %d entries of x differ in their bits", differ, n)
		}
		// The initial residual's Apply, then one per iteration.
		if want := res.Iterations + 1; calls != want {
			t.Fatalf("wrapped CG made %d applications over %d iterations, want %d", calls, res.Iterations, want)
		}
	})
}

func TestVectorCRCBurstNeverSilent(t *testing.T) {
	// Paper section IV: CRC32C detects all burst errors up to 32 bits.
	// Any burst confined to a 32-bit window of a codeword must therefore
	// be corrected exactly or reported — never silent.
	res := runCampaign(t, CampaignConfig{
		Scheme: core.CRC32C, Structure: core.StructVector,
		BurstWindow: 32, Trials: 300,
	})
	if res.SDC != 0 {
		t.Fatalf("crc32c: %d silent bursts within 32 bits: %v", res.SDC, res)
	}
	if res.Detected+res.Corrected == 0 {
		t.Fatalf("bursts had no effect at all: %v", res)
	}
}

func TestBurstFlipsStayInWindow(t *testing.T) {
	v := core.NewVector(64, core.CRC32C)
	size := v.Scheme().VecGroup() // words per codeword group
	in := NewInjector(3)
	for trial := 0; trial < 200; trial++ {
		flips := in.BurstVectorFlips(v, 32)
		if len(flips) == 0 {
			t.Fatal("empty burst")
		}
		lo, hi := 1<<30, -1
		group := -1
		for _, f := range flips {
			bit := (f.Word%size)*64 + f.Bit
			if g := f.Word / size; group == -1 {
				group = g
			} else if g != group {
				t.Fatal("burst crossed codeword groups")
			}
			if bit < lo {
				lo = bit
			}
			if bit > hi {
				hi = bit
			}
		}
		if hi-lo >= 32 {
			t.Fatalf("burst span %d exceeds window", hi-lo+1)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	v := core.NewVector(64, core.SECDED64)
	a := NewInjector(7).RandomVectorFlips(v, 5, false)
	b := NewInjector(7).RandomVectorFlips(v, 5, false)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different flips")
		}
	}
	seen := map[Flip]bool{}
	for _, f := range a {
		if seen[f] {
			t.Fatal("duplicate flip returned")
		}
		seen[f] = true
	}
}

func TestOutcomeAndTargetStrings(t *testing.T) {
	if Benign.String() != "benign" || Corrected.String() != "corrected" ||
		Detected.String() != "detected" || SDC.String() != "sdc" ||
		Recovered.String() != "recovered" {
		t.Fatal("outcome strings wrong")
	}
	if TargetValues.String() != "values" || TargetCols.String() != "cols" ||
		TargetRowPtr.String() != "rowptr" {
		t.Fatal("target strings wrong")
	}
	if Outcome(9).String() == "" || MatrixTarget(9).String() == "" {
		t.Fatal("unknown values should format")
	}
}

func TestCampaignResultRates(t *testing.T) {
	r := CampaignResult{Benign: 1, Corrected: 2, Detected: 3, SDC: 4, Recovered: 10}
	if r.Total() != 20 {
		t.Fatal("total wrong")
	}
	if r.Rate(Corrected) != 0.1 || r.Rate(SDC) != 0.2 ||
		r.Rate(Benign) != 0.05 || r.Rate(Detected) != 0.15 ||
		r.Rate(Recovered) != 0.5 {
		t.Fatal("rates wrong")
	}
	if (CampaignResult{}).Rate(SDC) != 0 {
		t.Fatal("empty result should have zero rates")
	}
	if r.String() == "" {
		t.Fatal("result should format")
	}
}

// TestShardedMatrixCampaigns asserts the single-flip capability floor
// through a randomly chosen shard of a sharded operator: no format and
// no shard may leak an SDC.
func TestShardedMatrixCampaigns(t *testing.T) {
	res := runCampaign(t, CampaignConfig{
		Scheme:       core.SECDED64,
		Structure:    core.StructElements,
		Bits:         1,
		SameCodeword: true,
		Shards:       3,
		Size:         12,
		Trials:       60,
	})
	if res.SDC != 0 {
		t.Fatalf("sharded secded64: %d SDCs on single flips: %v", res.SDC, res)
	}
	if res.Corrected == 0 {
		t.Fatalf("sharded secded64 corrected nothing: %v", res)
	}
}

// TestHaloCampaigns corrupts resident halo buffers between the scatter
// and exchange phases: SED must detect every observable single flip
// while SECDED64 corrects them; neither may produce silent corruption.
func TestHaloCampaigns(t *testing.T) {
	sed := runCampaign(t, CampaignConfig{
		Scheme:       core.SED,
		Structure:    core.StructHalo,
		Bits:         1,
		SameCodeword: true,
		Shards:       3,
		Size:         12,
		Trials:       80,
	})
	if sed.SDC != 0 {
		t.Fatalf("sed halo: %d SDCs on single flips: %v", sed.SDC, sed)
	}
	if sed.Detected == 0 {
		t.Fatalf("sed halo detected nothing: %v", sed)
	}
	if sed.Corrected != 0 {
		t.Fatalf("sed halo cannot correct: %v", sed)
	}

	secded := runCampaign(t, CampaignConfig{
		Scheme:       core.SECDED64,
		Structure:    core.StructHalo,
		Bits:         1,
		SameCodeword: true,
		Shards:       3,
		Size:         12,
		Trials:       80,
	})
	if secded.SDC != 0 || secded.Detected != 0 {
		t.Fatalf("secded64 halo: sdc=%d detected=%d on single flips: %v",
			secded.SDC, secded.Detected, secded)
	}
	if secded.Corrected == 0 {
		t.Fatalf("secded64 halo corrected nothing: %v", secded)
	}

	if _, err := Run(CampaignConfig{Scheme: core.SED, Structure: core.StructHalo}); err == nil {
		t.Fatal("halo campaign without shards accepted")
	}
}

// TestSolverStateCampaignRollbackRecovers corrupts live CG iteration
// vectors with double flips — a guaranteed detected-uncorrectable error
// under SECDED64 — and asserts the rollback policy turns every one of
// those aborts into a recovery: the solve converges to the fault-free
// answer with no SDC and no surfaced fault.
func TestSolverStateCampaignRollbackRecovers(t *testing.T) {
	res := runCampaign(t, CampaignConfig{
		Scheme:       core.SECDED64,
		Structure:    core.StructSolverState,
		Bits:         2,
		SameCodeword: true,
		Size:         6,
		Trials:       40,
		Recovery:     solvers.RecoveryRollback,
	})
	if res.SDC != 0 {
		t.Fatalf("rollback leaked %d SDCs: %v", res.SDC, res)
	}
	if res.Detected != 0 {
		t.Fatalf("rollback aborted %d trials it should have recovered: %v", res.Detected, res)
	}
	if res.Recovered == 0 {
		t.Fatalf("no recoveries recorded: %v", res)
	}
}

// TestSolverStateCampaignOffAborts runs the same strikes without
// recovery: every detected fault surfaces as an abort.
func TestSolverStateCampaignOffAborts(t *testing.T) {
	res := runCampaign(t, CampaignConfig{
		Scheme:       core.SECDED64,
		Structure:    core.StructSolverState,
		Bits:         2,
		SameCodeword: true,
		Size:         6,
		Trials:       40,
	})
	if res.Recovered != 0 {
		t.Fatalf("recovery off cannot recover: %v", res)
	}
	if res.Detected == 0 {
		t.Fatalf("no aborts recorded: %v", res)
	}
	if res.SDC != 0 {
		t.Fatalf("secded64 leaked %d SDCs: %v", res.SDC, res)
	}
}

// TestSolverStateCampaignSingleFlipsCorrect asserts single flips in
// dynamic state are corrected in place — no rollback needed.
func TestSolverStateCampaignSingleFlipsCorrect(t *testing.T) {
	res := runCampaign(t, CampaignConfig{
		Scheme:       core.SECDED64,
		Structure:    core.StructSolverState,
		Bits:         1,
		SameCodeword: true,
		Size:         6,
		Trials:       40,
		Recovery:     solvers.RecoveryRollback,
	})
	if res.SDC != 0 || res.Detected != 0 {
		t.Fatalf("single flips must be corrected: %v", res)
	}
	if res.Corrected == 0 {
		t.Fatalf("no corrections recorded: %v", res)
	}
}

// TestSolverStateCampaignFormatsAndSharded sweeps the solverstate
// campaign across every storage format and the sharded composite under
// both recovery policies: the recovery story must be format- and
// decomposition-agnostic.
func TestSolverStateCampaignFormatsAndSharded(t *testing.T) {
	for _, f := range op.Formats {
		for _, shards := range []int{0, 3} {
			for _, pol := range []solvers.RecoveryPolicy{solvers.RecoveryRollback, solvers.RecoveryRestart} {
				res := runCampaign(t, CampaignConfig{
					Scheme:       core.SECDED64,
					Structure:    core.StructSolverState,
					Format:       f,
					Bits:         2,
					SameCodeword: true,
					Size:         6,
					Shards:       shards,
					Trials:       15,
					Recovery:     pol,
				})
				if res.SDC != 0 || res.Detected != 0 {
					t.Fatalf("%v shards=%d %v: %v", f, shards, pol, res)
				}
				if res.Recovered == 0 {
					t.Fatalf("%v shards=%d %v: nothing recovered: %v", f, shards, pol, res)
				}
			}
		}
	}
}

// TestUnprotectedSolverStateLeaksSDC pins the counterfactual: with no
// vector protection the same strikes can pass silently — exactly the
// gap the protected dynamic state closes.
func TestUnprotectedSolverStateLeaksSDC(t *testing.T) {
	res := runCampaign(t, CampaignConfig{
		Scheme:       core.None,
		Structure:    core.StructSolverState,
		Bits:         2,
		SameCodeword: true,
		Size:         6,
		Trials:       40,
		Recovery:     solvers.RecoveryRollback,
	})
	if res.Recovered != 0 {
		t.Fatalf("nothing is detectable without protection: %v", res)
	}
	if res.SDC == 0 {
		t.Fatalf("expected silent corruption without protection: %v", res)
	}
}

// TestInnerPhaseCampaignAbsorbs strikes the live scratch of selective
// FGMRES's unverified inner solve — where no detection is possible by
// construction — and asserts the verified outer iteration absorbs every
// strike: convergence to the fault-free solution, zero SDC, zero aborts.
func TestInnerPhaseCampaignAbsorbs(t *testing.T) {
	res := runCampaign(t, CampaignConfig{
		Scheme: core.SECDED64,
		Phase:  PhaseInner,
		Bits:   2,
		Size:   8,
		Trials: 30,
	})
	if res.SDC != 0 {
		t.Fatalf("inner faults leaked %d SDCs: %v", res.SDC, res)
	}
	if res.Detected != 0 {
		t.Fatalf("inner faults aborted %d solves they should have absorbed: %v", res.Detected, res)
	}
	if res.Recovered == 0 {
		t.Fatalf("no absorbed faults recorded: %v", res)
	}
}

// TestInnerPhaseCampaignFormatsAndSharded sweeps the inner-phase
// campaign across storage formats and the sharded composite: the
// absorption contract is format- and decomposition-agnostic.
func TestInnerPhaseCampaignFormatsAndSharded(t *testing.T) {
	for _, f := range op.Formats {
		for _, shards := range []int{0, 3} {
			res := runCampaign(t, CampaignConfig{
				Scheme: core.SECDED64,
				Phase:  PhaseInner,
				Format: f,
				Bits:   1,
				Size:   8,
				Shards: shards,
				Trials: 10,
			})
			if res.SDC != 0 || res.Detected != 0 {
				t.Fatalf("%v shards=%d: %v", f, shards, res)
			}
		}
	}
}

// TestCampaignRejectsUnknownPhase pins the choice-listing error.
func TestCampaignRejectsUnknownPhase(t *testing.T) {
	if _, err := Run(CampaignConfig{Phase: "outer"}); err == nil {
		t.Fatal("unknown phase accepted")
	}
}

// promisedFlips lists, per scheme, the same-codeword flip counts the
// paper's section IV promises are never silent: parity catches every odd
// count, SECDED corrects one and detects two, CRC32C's Hamming distance
// 6 covers up to five.
var promisedFlips = map[core.Scheme][]int{
	core.SED:       {1, 3, 5},
	core.SECDED64:  {1, 2},
	core.SECDED128: {1, 2},
	core.CRC32C:    {1, 2, 3, 4, 5},
}

// defaultJacobiTrial is precondTrial for the preconditioner PCG and the
// jacobi solver build when none is configured: precond's Jacobi from a
// protected operator's verified Diagonal, in the campaign's scheme,
// struck through RawState.
func defaultJacobiTrial(cfg CampaignConfig, in *Injector) (*trial, error) {
	m, err := newOperator(cfg, campaignMatrix(cfg), true)
	if err != nil {
		return nil, err
	}
	d := make([]float64, m.Rows())
	if err := m.Diagonal(d); err != nil {
		return nil, err
	}
	p, err := precond.NewJacobi(d, precond.Options{Scheme: cfg.Scheme})
	if err != nil {
		return nil, err
	}
	return precondStrike(cfg, in, p), nil
}

// TestNoSDCWherePromised is the capability gate over every campaign
// structure, storage format and scheme: at the flip counts a scheme
// promises to handle, no trial may end in silent data corruption. The
// inner phase promises absorption at every count, since the verified
// outer iteration, not a codeword, stands behind it.
func TestNoSDCWherePromised(t *testing.T) {
	type cell struct {
		name string
		cfg  CampaignConfig
		// kind, when set, builds the cell's trials in place of the
		// kind Run picks from cfg.
		kind func(CampaignConfig, *Injector) (*trial, error)
	}
	var cells []cell
	add := func(name string, cfg CampaignConfig) { cells = append(cells, cell{name: name, cfg: cfg}) }
	add("vector", CampaignConfig{Structure: core.StructVector})
	for _, k := range precond.ProtectingKinds {
		add("precond/"+k.String(), CampaignConfig{Structure: core.StructPrecond, Precond: k})
	}
	cells = append(cells, cell{"precond/default", CampaignConfig{Structure: core.StructPrecond}, defaultJacobiTrial})
	for _, f := range op.Formats {
		add("elements/"+f.String(), CampaignConfig{Structure: core.StructElements, Format: f})
		add("elements/"+f.String()+"/shards=3", CampaignConfig{Structure: core.StructElements, Format: f, Shards: 3})
		if f != op.SELLCS {
			add("rowptr/"+f.String(), CampaignConfig{Structure: core.StructRowPtr, Format: f})
		}
		add("halo/"+f.String(), CampaignConfig{Structure: core.StructHalo, Format: f, Shards: 2})
		add("solverstate/"+f.String(), CampaignConfig{
			Structure: core.StructSolverState, Format: f, Recovery: solvers.RecoveryRollback,
		})
		add("inner/"+f.String(), CampaignConfig{Phase: PhaseInner, Format: f})
	}
	for _, c := range cells {
		if testing.Short() && (c.cfg.Phase != "" || c.cfg.Structure == core.StructSolverState) {
			continue // two full solves per trial
		}
		for _, s := range core.ProtectingSchemes {
			counts := promisedFlips[s]
			if c.cfg.Phase == PhaseInner {
				counts = []int{1, 2, 3, 4, 5}
			}
			for _, bits := range counts {
				cfg := c.cfg
				cfg.Scheme, cfg.Bits, cfg.SameCodeword = s, bits, true
				cfg.Size, cfg.Trials = 12, 10
				var res CampaignResult
				if c.kind == nil {
					res = runCampaign(t, cfg)
				} else {
					cfg.Seed = 42
					var err error
					if res, err = runKind(cfg, c.kind); err != nil {
						t.Fatalf("%s %v %d flips: %v", c.name, s, bits, err)
					}
				}
				if res.SDC != 0 {
					t.Errorf("%s %v %d flips: %d SDCs: %v", c.name, s, bits, res.SDC, res)
				}
			}
		}
	}
}
