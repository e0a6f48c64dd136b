package tealeaf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"abft/internal/core"
	"abft/internal/ecc"
	"abft/internal/op"
	"abft/internal/solvers"
)

// ParseInput reads a TeaLeaf input deck (the tea.in format) and returns
// the configuration, starting from DefaultConfig for anything the deck
// does not mention. Beyond the standard keys, ABFT extensions are
// recognised:
//
//	abft_format=<format>     matrix storage format (csr, coo, sellcs)
//	abft_elements=<scheme>   matrix element protection
//	abft_rowptr=<scheme>     row-pointer protection
//	abft_vectors=<scheme>    dense vector protection
//	abft_interval=<n>        full-check interval in sweeps
//	abft_crc=<backend>       hardware or software CRC32C
//	workers=<n>              kernel goroutines
//
// Unknown keys are ignored (TeaLeaf decks carry visualisation settings and
// similar that do not apply here); malformed values are errors.
func ParseInput(r io.Reader) (Config, error) {
	cfg := DefaultConfig()
	cfg.States = nil
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "!") || strings.HasPrefix(text, "#") ||
			strings.HasPrefix(text, "*") {
			continue
		}
		if err := parseLine(&cfg, text); err != nil {
			return cfg, fmt.Errorf("tealeaf: input line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return cfg, err
	}
	if len(cfg.States) == 0 {
		cfg.States = DefaultConfig().States
	}
	return cfg, nil
}

func parseLine(cfg *Config, text string) error {
	fields := strings.Fields(text)
	if len(fields) >= 2 && fields[0] == "state" {
		return parseState(cfg, fields[1:])
	}
	for _, f := range fields {
		if err := parseToken(cfg, f); err != nil {
			return err
		}
	}
	return nil
}

func parseToken(cfg *Config, tok string) error {
	key, val, hasVal := strings.Cut(tok, "=")
	if !hasVal {
		switch key {
		case "tl_use_cg":
			cfg.Solver = solvers.KindCG
		case "tl_use_jacobi":
			cfg.Solver = solvers.KindJacobi
		case "tl_use_chebyshev":
			cfg.Solver = solvers.KindChebyshev
		case "tl_use_ppcg":
			cfg.Solver = solvers.KindPPCG
		case "use_cg", "use_jacobi", "use_chebyshev", "use_ppcg":
			return parseToken(cfg, "tl_"+key)
		}
		return nil // bare flags we do not know are ignored
	}
	switch key {
	case "x_cells":
		return parseInt(val, &cfg.NX)
	case "y_cells":
		return parseInt(val, &cfg.NY)
	case "xmin":
		return parseFloat(val, &cfg.XMin)
	case "ymin":
		return parseFloat(val, &cfg.YMin)
	case "xmax":
		return parseFloat(val, &cfg.XMax)
	case "ymax":
		return parseFloat(val, &cfg.YMax)
	case "initial_timestep":
		return parseFloat(val, &cfg.DtInit)
	case "end_step":
		return parseInt(val, &cfg.EndStep)
	case "tl_eps":
		return parseFloat(val, &cfg.Eps)
	case "tl_max_iters":
		return parseInt(val, &cfg.MaxIters)
	case "tl_eigen_iters":
		return parseInt(val, &cfg.EigenIters)
	case "tl_ppcg_inner_steps":
		return parseInt(val, &cfg.InnerSteps)
	case "coefficient":
		switch val {
		case "conductivity":
			cfg.Coefficient = Conductivity
		case "recip", "recip_conductivity":
			cfg.Coefficient = RecipConductivity
		default:
			return fmt.Errorf("unknown coefficient %q", val)
		}
		return nil
	case "abft_format":
		f, err := op.ParseFormat(val)
		if err != nil {
			return err
		}
		cfg.Format = f
		return nil
	case "abft_elements":
		return parseScheme(val, &cfg.ElemScheme)
	case "abft_rowptr":
		return parseScheme(val, &cfg.RowPtrScheme)
	case "abft_vectors":
		return parseScheme(val, &cfg.VectorScheme)
	case "abft_interval":
		return parseInt(val, &cfg.CheckInterval)
	case "abft_crc":
		b, err := ecc.ParseBackend(val)
		if err != nil {
			return err
		}
		cfg.CRCBackend = b
		return nil
	case "workers":
		return parseInt(val, &cfg.Workers)
	default:
		return nil // unknown key=value settings are ignored
	}
}

func parseState(cfg *Config, fields []string) error {
	idx, err := strconv.Atoi(fields[0])
	if err != nil {
		return fmt.Errorf("state index %q: %w", fields[0], err)
	}
	if idx < 1 {
		return fmt.Errorf("state index %d out of order", idx)
	}
	for len(cfg.States) < idx {
		cfg.States = append(cfg.States, State{Density: 1})
	}
	st := &cfg.States[idx-1]
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return fmt.Errorf("state field %q not key=value", f)
		}
		switch key {
		case "density":
			err = parseFloat(val, &st.Density)
		case "energy":
			err = parseFloat(val, &st.Energy)
		case "geometry":
			switch val {
			case "rectangle":
				st.Geom = Rectangle
			case "circle":
				st.Geom = Circle
			case "point":
				st.Geom = Point
			default:
				err = fmt.Errorf("unknown geometry %q", val)
			}
		case "xmin":
			err = parseFloat(val, &st.XMin)
		case "xmax":
			err = parseFloat(val, &st.XMax)
		case "ymin":
			err = parseFloat(val, &st.YMin)
		case "ymax":
			err = parseFloat(val, &st.YMax)
		case "xcentre", "xcenter":
			err = parseFloat(val, &st.XCentre)
		case "ycentre", "ycenter":
			err = parseFloat(val, &st.YCentre)
		case "radius":
			err = parseFloat(val, &st.Radius)
		default:
			// Unknown state attributes are ignored, matching TeaLeaf.
		}
		if err != nil {
			return fmt.Errorf("state %d %s: %w", idx, key, err)
		}
	}
	return nil
}

func parseInt(s string, dst *int) error {
	v, err := strconv.Atoi(s)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func parseFloat(s string, dst *float64) error {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

func parseScheme(s string, dst *core.Scheme) error {
	v, err := core.ParseScheme(s)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}
