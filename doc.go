// Package abft is a Go implementation of the application-based fault
// tolerance techniques of Pawelczak, McIntosh-Smith, Price and Martineau,
// "Application-Based Fault Tolerance Techniques for Fully Protecting
// Sparse Matrix Solvers" (IEEE CLUSTER 2017): software ECC — parity,
// SECDED Hamming codes and CRC32C — embedded into the unused bits of
// sparse-matrix index structures and the mantissa tails of dense float64
// vectors, so that every data structure of an iterative sparse solver is
// protected against memory bit flips with zero storage overhead.
//
// Three protected storage formats — CSR, COO and SELL-C-sigma — sit
// behind the format-agnostic ProtectedMatrix interface; every solver,
// fault campaign and benchmark operates through it.
//
// The package is a facade over the implementation packages:
//
//   - internal/ecc      — the error detecting and correcting codes
//   - internal/core     — protected CSR matrix, vectors, kernels and the
//     ProtectedMatrix interface
//   - internal/csr      — the unprotected CSR substrate
//   - internal/coo      — the protected coordinate format
//   - internal/sell     — the protected SELL-C-sigma format
//   - internal/op       — the storage-format registry
//   - internal/shard    — the row-sharded operator with protected halos
//   - internal/precond  — protected Jacobi, block-Jacobi and SGS
//   - internal/solvers  — CG, PCG, BlockCG, Jacobi, Chebyshev, PPCG and
//     FGMRES with checkpoint/rollback recovery
//   - internal/tealeaf  — the TeaLeaf heat-conduction mini-app workload
//   - internal/faults   — fault injection and outcome classification
//   - internal/mm       — MatrixMarket reader and writer
//   - internal/service  — the abftd solve service
//
// The paper's figures are regenerated by cmd/abftbench; the repo's
// benchmark is the separate benchmark/ module (BENCHMARK.json).
//
// # Quick start
//
//	m, _ := abft.NewMatrix(abft.Laplacian2D(64, 64), abft.MatrixOptions{
//		ElemScheme:   abft.SECDED64,
//		RowPtrScheme: abft.SECDED64,
//	})
//	b := abft.NewVector(m.Rows(), abft.SECDED64)
//	b.Fill(1)
//	x := abft.NewVector(m.Rows(), abft.SECDED64)
//	res, err := abft.SolveCG(m, x, b, abft.SolveOptions{Tol: 1e-10})
//
// A single bit flipped anywhere in m, b or x is corrected transparently
// during the solve; uncorrectable corruption surfaces as a *FaultError the
// application can react to (for example by re-protecting and re-solving)
// instead of crashing or silently computing garbage.
package abft
