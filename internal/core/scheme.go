// Package core implements the paper's contribution: Application-Based Fault
// Tolerance for sparse matrix solvers with zero storage overhead. It
// provides CSR matrices whose elements, column indices and row pointers
// carry embedded ECC in otherwise-unused bits, dense float64 vectors whose
// redundancy lives in the least significant mantissa bits, and the solver
// kernels (SpMV, dot, axpy) that perform integrity checking as they stream
// through the data.
//
// The protection schemes follow Pawelczak et al., "Application-Based Fault
// Tolerance Techniques for Fully Protecting Sparse Matrix Solvers"
// (CLUSTER 2017): SED parity, SECDED64/SECDED128 Hamming codes, and CRC32C
// checksums, each embedded per structure as described in DESIGN.md.
package core

import "abft/internal/enum"

// Scheme selects the software ECC applied to a protected structure.
type Scheme uint8

const (
	// None disables protection; reads and writes are raw. Baseline.
	None Scheme = iota
	// SED is single-error-detecting parity: one redundancy bit per
	// element, detects any odd number of bit flips, corrects nothing.
	SED
	// SECDED64 is a Hamming code with 8 redundancy bits per 64-ish-bit
	// element: corrects single flips, detects double flips per codeword.
	SECDED64
	// SECDED128 spreads 9 redundancy bits across a two-element codeword:
	// half the redundancy of SECDED64 with half the correction capability
	// per bit of data.
	SECDED128
	// CRC32C protects a multi-element codeword with a 32-bit checksum;
	// detects up to 5 flips (HD=6 within 178..5243-bit codewords) and can
	// correct 1-2 flips by syndrome search.
	CRC32C
)

// Schemes lists all protection schemes including None, in display order.
var Schemes = []Scheme{None, SED, SECDED64, SECDED128, CRC32C}

// ProtectingSchemes lists only the schemes that add protection.
var ProtectingSchemes = []Scheme{SED, SECDED64, SECDED128, CRC32C}

var schemes = enum.Table[Scheme]{Pkg: "core", What: "scheme", Names: [][]string{
	None:      {"none", ""},
	SED:       {"sed", "parity"},
	SECDED64:  {"secded64", "secded"},
	SECDED128: {"secded128"},
	CRC32C:    {"crc32c", "crc"},
}}

func (s Scheme) String() string { return schemes.String(s) }

// ParseScheme converts a string produced by Scheme.String back to a Scheme.
func ParseScheme(s string) (Scheme, error) { return schemes.Parse(s) }

// SchemeNames returns the registered scheme names as a comma-separated
// list, for error messages and command-line help.
func SchemeNames() string { return schemes.List() }

// VecGroup returns the number of float64 elements per vector codeword:
// the whole BlockLen-element block under CRC32C.
func (s Scheme) VecGroup() int {
	switch s {
	case SECDED128:
		return 2
	case CRC32C:
		return BlockLen
	default:
		return 1
	}
}

// VecReservedBits returns how many least-significant mantissa bits each
// protected float64 sacrifices to hold redundancy (masked to zero on use).
func (s Scheme) VecReservedBits() int {
	switch s {
	case None:
		return 0
	case SED:
		return 1
	case SECDED64:
		return 8
	case SECDED128:
		return 5
	case CRC32C:
		return 8
	default:
		return 0
	}
}

// vecMask returns the AND-mask that clears the reserved mantissa bits.
func (s Scheme) vecMask() uint64 {
	return ^uint64(0) << uint(s.VecReservedBits())
}

// ElemGroup returns the number of CSR elements per element codeword; 0
// means the codeword is a whole matrix row (CRC32C).
func (s Scheme) ElemGroup() int {
	switch s {
	case SECDED128:
		return 2
	case CRC32C:
		return 0
	default:
		return 1
	}
}

// RowPtrGroup returns the number of row-pointer entries per codeword.
func (s Scheme) RowPtrGroup() int {
	switch s {
	case None, SED:
		return 1
	case SECDED64:
		return 2
	case SECDED128:
		return 4
	case CRC32C:
		return 8
	default:
		return 1
	}
}

// MaxCols returns the largest permitted column count for the element
// protection scheme: the redundancy stolen from the 32-bit column index
// constrains the addressable columns (paper section VI-A).
func (s Scheme) MaxCols() int {
	switch s {
	case None:
		return 1<<32 - 1
	case SED:
		return 1<<31 - 1
	default:
		return 1<<24 - 1
	}
}

// MaxNNZ returns the largest permitted number of stored entries for the
// row-pointer protection scheme (paper section VI-A-1).
func (s Scheme) MaxNNZ() int {
	switch s {
	case None:
		return 1<<32 - 1
	case SED:
		return 1<<31 - 1
	default:
		return 1<<28 - 1
	}
}

// MinRowEntries returns the smallest row length the element scheme can
// protect: CRC32C needs four spare bytes per row.
func (s Scheme) MinRowEntries() int {
	if s == CRC32C {
		return 4
	}
	return 0
}
