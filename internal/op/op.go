// Package op is the format registry of the protected-operator layer: it
// names the ABFT-protected sparse storage formats the repository
// implements — CSR (internal/core), coordinate (internal/coo) and
// SELL-C-sigma (internal/sell) — and constructs any of them behind the
// format-agnostic core.ProtectedMatrix interface. Solvers, fault
// campaigns, benchmarks and the command-line tools select a format by
// name and never see a concrete layout.
package op

import (
	"fmt"

	"abft/internal/coo"
	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/enum"
	"abft/internal/sell"
)

// Format names a protected sparse storage format.
type Format uint8

const (
	// CSR is compressed sparse row, the paper's primary format.
	CSR Format = iota
	// COO is coordinate (triplet) format, the second format of the
	// paper's predecessor lineage.
	COO
	// SELLCS is SELL-C-sigma (sliced ELLPACK), the SIMD-friendly layout.
	SELLCS
)

// Formats lists every storage format in display order.
var Formats = []Format{CSR, COO, SELLCS}

var formats = enum.Table[Format]{Pkg: "op", What: "format", Names: [][]string{
	CSR:    {"csr", ""},
	COO:    {"coo"},
	SELLCS: {"sellcs", "sell", "sell-c-sigma"},
}}

func (f Format) String() string { return formats.String(f) }

// ParseFormat converts a format name ("csr", "coo", "sellcs") to a Format.
func ParseFormat(s string) (Format, error) { return formats.Parse(s) }

// FormatNames returns the registered format names as a comma-separated
// list, for error messages and command-line help.
func FormatNames() string { return formats.List() }

// Config carries the protection options shared across formats plus the
// format-specific knobs; irrelevant fields are ignored by formats that do
// not have the corresponding structure.
type Config struct {
	// Scheme protects the element stream of every format.
	Scheme core.Scheme
	// RowPtrScheme protects the CSR row-pointer vector (CSR only; COO
	// and SELL-C-sigma row structure is covered by Scheme or is trusted
	// metadata — see the package comments of internal/coo and
	// internal/sell).
	RowPtrScheme core.Scheme
	// Backend selects the CRC32C implementation.
	Backend ecc.Backend
	// CheckInterval performs full integrity checks only on every n-th
	// sweep and range checks on the sweeps between, in every format
	// (core.Shell.SetCheckInterval); zero or one checks every sweep.
	CheckInterval int
	// Sigma is the SELL-C-sigma sorting window (SELL only; zero uses
	// the format default).
	Sigma int
}

// New builds a protected matrix of the given format from an unprotected
// CSR source. The result is used exclusively through the
// core.ProtectedMatrix interface.
func New(f Format, src *csr.Matrix, cfg Config) (core.ProtectedMatrix, error) {
	var m interface {
		core.ProtectedMatrix
		SetCheckInterval(n int)
	}
	var err error
	switch f {
	case CSR:
		m, err = core.NewMatrix(src, core.MatrixOptions{
			ElemScheme:   cfg.Scheme,
			RowPtrScheme: cfg.RowPtrScheme,
			Backend:      cfg.Backend,
		})
	case COO:
		m, err = coo.NewMatrix(src, coo.Options{
			Scheme:  cfg.Scheme,
			Backend: cfg.Backend,
		})
	case SELLCS:
		m, err = sell.NewMatrix(src, sell.Options{
			Scheme:  cfg.Scheme,
			Backend: cfg.Backend,
			Sigma:   cfg.Sigma,
		})
	default:
		return nil, fmt.Errorf("op: unknown format %v", f)
	}
	if err != nil {
		return nil, err
	}
	m.SetCheckInterval(cfg.CheckInterval)
	return m, nil
}
