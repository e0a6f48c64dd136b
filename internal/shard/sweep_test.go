package shard

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
)

// TestBandSweepsStayInStep: the check interval is the composite's, so a
// product that one band fails is one sweep for every band. Three bands
// on two processors put bands 0 and 1 in one goroutine; a fault detected
// in band 0 stops band 1 before its product, and must not leave band 1 a
// sweep behind: over the next eight products every band full-checks on
// products 4 and 8 only.
func TestBandSweepsStayInStep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const interval = 4
	const double = 1<<40 | 1<<41
	for _, f := range op.Formats {
		t.Run(f.String(), func(t *testing.T) {
			o, err := New(csr.Laplacian2D(16, 16), Options{Shards: 3, Format: f,
				Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64, CheckInterval: interval}})
			if err != nil {
				t.Fatal(err)
			}
			if o.Shards() != 3 {
				t.Fatalf("%d shards, want 3", o.Shards())
			}
			cs := make([]core.Counters, o.Shards())
			for i := range cs {
				o.Shard(i).SetCounters(&cs[i])
			}
			x := core.VectorFromSlice(refVector(o.Cols()), core.None)
			dst := core.NewVector(o.Rows(), core.None)

			v := o.Shard(0).RawVals()
			v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ double)
			var fe *core.FaultError
			if err := o.Apply(dst, x, 1); !errors.As(err, &fe) {
				t.Fatalf("product 0: %v, want a detected fault", err)
			}
			v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ double)

			for p := 1; p <= 2*interval; p++ {
				before := make([]uint64, len(cs))
				for i := range cs {
					before[i] = cs[i].Checks()
				}
				if err := o.Apply(dst, x, 1); err != nil {
					t.Fatalf("product %d: %v", p, err)
				}
				for i := range cs {
					if full := cs[i].Checks() > before[i]; full != (p%interval == 0) {
						t.Errorf("product %d: band %d full check %v, want %v", p, i, full, p%interval == 0)
					}
				}
			}
		})
	}
}
