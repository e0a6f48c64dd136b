package service

import (
	"fmt"
	"math"
	"strings"

	"abft/internal/csr"
	"abft/internal/op"
)

// MatrixProfile is the admission-time structural profile of a solve
// request's operator: the quantities the autotuner's format and shard
// heuristics read, computed in one O(nnz) pass over the assembled
// source before it is encoded into protected storage.
type MatrixProfile struct {
	// Rows is the operator dimension.
	Rows int `json:"rows"`
	// NNZ is the stored entry count of the assembly source.
	NNZ int `json:"nnz"`
	// MeanRowNNZ is the mean number of entries per row.
	MeanRowNNZ float64 `json:"mean_row_nnz"`
	// RowLenCV is the coefficient of variation (stddev/mean) of the
	// row lengths: 0 for perfectly regular rows, growing with
	// irregularity. It drives the format choice — SELL-C-sigma pads
	// every lane to its slice width, so its overhead is a direct
	// function of this number.
	RowLenCV float64 `json:"row_len_cv"`
	// Bandwidth is the maximum |col - row| over all entries: how far a
	// row couples from the diagonal, and therefore how large a sharded
	// operator's halos would be.
	Bandwidth int `json:"bandwidth"`
}

// profileMatrix computes the structural profile of src.
func profileMatrix(src *csr.Matrix) MatrixProfile {
	p := MatrixProfile{Rows: src.Rows(), NNZ: src.NNZ()}
	if p.Rows == 0 {
		return p
	}
	var sum, sumSq float64
	for r := 0; r < p.Rows; r++ {
		n := float64(src.RowPtr[r+1] - src.RowPtr[r])
		sum += n
		sumSq += n * n
		for k := src.RowPtr[r]; k < src.RowPtr[r+1]; k++ {
			if d := int(src.Cols[k]) - r; d > p.Bandwidth {
				p.Bandwidth = d
			} else if -d > p.Bandwidth {
				p.Bandwidth = -d
			}
		}
	}
	p.MeanRowNNZ = sum / float64(p.Rows)
	if p.MeanRowNNZ > 0 {
		variance := sumSq/float64(p.Rows) - p.MeanRowNNZ*p.MeanRowNNZ
		if variance < 0 {
			variance = 0
		}
		p.RowLenCV = math.Sqrt(variance) / p.MeanRowNNZ
	}
	return p
}

// AutotuneDecision records which knobs the admission-time autotuner
// selected for a request that left them unpinned, along with the profile
// the heuristics read. It is echoed in the job's SolveResult so callers
// can see — and thereafter pin — what the service chose.
type AutotuneDecision struct {
	// Profile is the structural profile the choices were derived from.
	Profile MatrixProfile `json:"profile"`
	// Format is the auto-selected storage format ("" when the request
	// pinned it).
	Format string `json:"format,omitempty"`
	// Shards is the auto-selected band count (0 when the request pinned
	// it or the heuristic chose an unsharded solve).
	Shards int `json:"shards,omitempty"`
	// Sigma is the auto-selected SELL-C-sigma sorting window (0 unless
	// the effective format is sellcs and the request left it unpinned).
	Sigma int `json:"sigma,omitempty"`
	// Reason explains each choice in one line per knob.
	Reason string `json:"reason"`
}

// Autotuning thresholds. A request pins any knob simply by setting it;
// the heuristics below only ever fill knobs the request left at their
// zero values (DESIGN.md section 12).
const (
	// autotuneRegularCV is the row-length coefficient of variation under
	// which rows are regular enough for SELL-C-sigma: lane padding waste
	// stays marginal and the column-major stream wins.
	autotuneRegularCV = 0.25
	// autotuneHyperSparseMean is the mean nnz/row under which the
	// row-pointer structure costs more than it organises and COO's flat
	// triplet stream is the better protected layout.
	autotuneHyperSparseMean = 2.0
	// autotuneShardRows is the minimum operator size worth cutting into
	// bands: below it the halo exchange overhead dominates the
	// parallelism a sharded solve buys.
	autotuneShardRows = 4096
	// autotuneShardBandwidthDiv requires bandwidth <= rows/this before
	// sharding, so every band couples only to its immediate neighbours
	// and the halos stay a small fraction of the band.
	autotuneShardBandwidthDiv = 8
	// autotuneShards is the band count chosen for shardable operators
	// (clamped by the server's MaxShards and the operator size).
	autotuneShards = 4
	// autotuneSigmaRegular and autotuneSigmaIrregular are the
	// SELL-C-sigma sorting windows for regular and irregular operators:
	// irregular rows profit from a wider sort scope gathering similar
	// lengths into one slice.
	autotuneSigmaRegular   = 32
	autotuneSigmaIrregular = 128
)

// autotune fills the knobs req left unpinned — storage format, shard
// count, SELL-C-sigma chunk window — from the operator's structural
// profile (computed when the source was first read, remembered per
// digest since), mutating p in place before shard finalization. It returns nil
// when every tunable knob was pinned by the request. The tuned values
// flow through the same finalizeShards and operatorKey path as pinned
// ones, so an autotuned solve is bit-identical to (and shares its cached
// operator with) an explicit request for the same configuration.
func autotune(req *SolveRequest, p *solveParams, prof MatrixProfile, cfg Config) *AutotuneDecision {
	// Format is tunable only when nothing in the request constrains the
	// storage layout: an explicit format, a row-pointer scheme (CSR
	// only) or a shard-local format all pin it — though a shard format
	// only while the solve is actually sharded, since after clamping to
	// a single band it no longer names anything.
	formatFree := req.Format == "" && req.RowPtrScheme == "" &&
		(req.ShardFormat == "" || p.shards <= 1)
	shardsFree := req.Shards == 0
	sigmaFree := req.Sigma == 0
	if !formatFree && !shardsFree && !sigmaFree {
		return nil
	}
	d := &AutotuneDecision{Profile: prof}
	var reasons []string

	if formatFree {
		switch {
		case prof.RowLenCV <= autotuneRegularCV && prof.MeanRowNNZ >= 3:
			p.format = op.SELLCS
			reasons = append(reasons, fmt.Sprintf(
				"format=sellcs: row lengths regular (cv %.2f <= %.2f, mean nnz/row %.1f)",
				prof.RowLenCV, autotuneRegularCV, prof.MeanRowNNZ))
		case prof.MeanRowNNZ < autotuneHyperSparseMean:
			p.format = op.COO
			reasons = append(reasons, fmt.Sprintf(
				"format=coo: hyper-sparse (mean nnz/row %.1f < %.1f)",
				prof.MeanRowNNZ, autotuneHyperSparseMean))
		default:
			p.format = op.CSR
			reasons = append(reasons, fmt.Sprintf(
				"format=csr: irregular rows (cv %.2f > %.2f)",
				prof.RowLenCV, autotuneRegularCV))
		}
		p.shardFormat = p.format
		d.Format = p.format.String()
	}

	if shardsFree && prof.Rows >= autotuneShardRows &&
		prof.Bandwidth*autotuneShardBandwidthDiv <= prof.Rows {
		p.shards = autotuneShards
		if p.shards > cfg.MaxShards {
			p.shards = cfg.MaxShards
		}
		if p.shards > 1 {
			d.Shards = p.shards
			reasons = append(reasons, fmt.Sprintf(
				"shards=%d: %d rows with bandwidth %d (halo <= 1/%d of a band)",
				p.shards, prof.Rows, prof.Bandwidth, autotuneShardBandwidthDiv))
		}
	}

	effective := p.format
	if p.shards > 1 {
		effective = p.shardFormat
	}
	if sigmaFree && effective == op.SELLCS {
		if prof.RowLenCV <= autotuneRegularCV {
			p.sigma = autotuneSigmaRegular
		} else {
			p.sigma = autotuneSigmaIrregular
		}
		d.Sigma = p.sigma
		reasons = append(reasons, fmt.Sprintf(
			"sigma=%d: sort window matched to row-length cv %.2f", p.sigma, prof.RowLenCV))
	}

	if len(reasons) == 0 {
		// Every free knob kept its default (e.g. an operator too small
		// to shard under a pinned format): nothing was tuned.
		return nil
	}
	d.Reason = strings.Join(reasons, "; ")
	return d
}
