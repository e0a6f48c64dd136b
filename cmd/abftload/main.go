// Command abftload drives a running abftd with synthetic solve traffic
// and reports client-side latency and throughput: p50/p99 wall time per
// request and solves per second. Scenarios shape the mix:
//
//	single    distinct single-RHS jobs across two operators
//	batch     rhs_batch requests of width 2-8
//	coalesce  identical batch-eligible singles, bait for the
//	          service's admission-time coalescer
//	selective nonsymmetric convection-diffusion systems solved by
//	          FGMRES under selective reliability (unverified inner
//	          solve)
//	mixed     60% single, 20% batch, 20% coalesce
//
// Each operator's matrix travels once: the result echoes the digest of
// the source as sent, and later requests for that matrix send the digest
// as an operator handle in place of the document, falling back to the
// document when the service answers 404 (evicted, or no operator under
// these knobs yet).
//
// A solve the service turns away with 429 (queue full) is counted as a
// rejection, apart from failures, and does not fail the drive.
//
// After the drive it scrapes /metrics and echoes the coalescing
// counters, so a load run doubles as an end-to-end check that batching
// actually engaged.
//
// Usage:
//
//	abftload -addr http://127.0.0.1:8080 -n 200 -c 8 -scenario mixed
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abftload:", err)
		os.Exit(1)
	}
}

// request is one pre-built solve payload, the matrix apart from the rest
// so the body can carry either the matrix or its handle; building the
// whole schedule up front keeps the timed section free of JSON encoding
// and RNG work.
type request struct {
	scenario string
	matrix   []byte // the "matrix" value
	rest     []byte // every other field, as the tail of the object: `,"tol":…}`
}

// body assembles the request around its matrix, or around the handle of
// an operator the service already holds.
func (r request) body(handle string) []byte {
	matrix := r.matrix
	if handle != "" {
		matrix = []byte(`{"operator":"` + handle + `"}`)
	}
	return append(append([]byte(`{"matrix":`), matrix...), r.rest...)
}

// driver posts requests and remembers the handle of each matrix sent.
type driver struct {
	client *http.Client
	url    string

	mu       sync.Mutex
	handles  map[string]string // matrix JSON -> operator handle
	byHandle int
	fellBack int
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("abftload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr     = fs.String("addr", "http://127.0.0.1:8080", "abftd base URL")
		n        = fs.Int("n", 100, "total requests")
		c        = fs.Int("c", 8, "concurrent clients")
		scenario = fs.String("scenario", "mixed", "traffic shape: single, batch, coalesce, selective, mixed")
		nx       = fs.Int("nx", 20, "grid cells per side of the largest operator")
		seed     = fs.Int64("seed", 1, "scenario RNG seed (schedules are deterministic per seed)")
		timeout  = fs.Duration("timeout", 2*time.Minute, "per-request HTTP timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 || *c < 1 {
		return fmt.Errorf("-n and -c must be at least 1")
	}
	reqs, err := buildSchedule(*scenario, *n, *nx, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}

	// Default transports keep two idle connections per host; with more
	// clients than that, every further request pays a fresh dial, which
	// staggers arrivals enough to distort latency and queue pressure.
	client := &http.Client{
		Timeout:   *timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: *c},
	}
	url := strings.TrimRight(*addr, "/") + "/v1/solve?wait=1"
	d := &driver{client: client, url: url, handles: make(map[string]string)}
	durations := make([]time.Duration, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				errs[i] = d.post(reqs[i])
				durations[i] = time.Since(t0)
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	elapsed := time.Since(start)

	failures, rejected := 0, 0
	for i, e := range errs {
		switch {
		case errors.Is(e, errRejected):
			rejected++
		case e != nil:
			failures++
			if failures <= 5 {
				fmt.Fprintf(stdout, "request %d (%s): %v\n", i, reqs[i].scenario, e)
			}
		}
	}
	sort.Slice(durations, func(a, b int) bool { return durations[a] < durations[b] })
	fmt.Fprintf(stdout, "abftload: %d requests (%s), concurrency %d, %d failed, %d rejected (queue full)\n",
		len(reqs), *scenario, *c, failures, rejected)
	fmt.Fprintf(stdout, "elapsed %v, %.1f solves/sec\n",
		elapsed.Round(time.Millisecond), float64(len(reqs))/elapsed.Seconds())
	fmt.Fprintf(stdout, "latency p50 %v  p99 %v  max %v\n",
		quantile(durations, 0.50), quantile(durations, 0.99), durations[len(durations)-1])

	fmt.Fprintf(stdout, "operator handles: %d requests sent by handle, %d fell back to the document on 404\n",
		d.byHandle, d.fellBack)

	if coal, width, err := scrapeCoalescing(client, *addr); err != nil {
		fmt.Fprintf(stdout, "metrics scrape failed: %v\n", err)
	} else {
		fmt.Fprintf(stdout, "server coalesced %s jobs over %s executed solves\n", coal, width)
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d requests failed", failures, len(reqs))
	}
	return nil
}

// buildSchedule materialises the request mix for a scenario.
func buildSchedule(scenario string, n, nx int, rng *rand.Rand) ([]request, error) {
	small := nx * 3 / 4
	if small < 4 {
		small = 4
	}
	rhs := func(rows, salt int) []float64 {
		b := make([]float64, rows)
		for i := range b {
			b[i] = float64((i*13+salt*7)%29) - 14
		}
		return b
	}
	single := func(i int) map[string]any {
		grids := [2]int{nx, small}
		schemes := [2]string{"secded64", "crc32c"}
		g := grids[i%2]
		return map[string]any{
			"matrix": map[string]any{"grid": map[string]int{"nx": g, "ny": g}},
			"scheme": schemes[(i/2)%2],
			"solver": "cg",
			"b":      rhs(g*g, i),
			"tol":    1e-8,
		}
	}
	batch := func(i int) map[string]any {
		k := 2 + rng.Intn(7)
		cols := make([][]float64, k)
		for j := range cols {
			cols[j] = rhs(small*small, i+j)
		}
		return map[string]any{
			"matrix":    map[string]any{"grid": map[string]int{"nx": small, "ny": small}},
			"scheme":    "secded64",
			"solver":    "cg",
			"rhs_batch": cols,
			"tol":       1e-8,
		}
	}
	// Identical payloads on one operator: queued duplicates are exactly
	// what the admission-time coalescer merges.
	// Identical options on the largest operator at a tight tolerance:
	// the solves are slow enough that a queued leader is still waiting
	// when its burst-mates arrive.
	coalesce := func(int) map[string]any {
		return map[string]any{
			"matrix":        map[string]any{"grid": map[string]int{"nx": nx, "ny": nx}},
			"scheme":        "secded64",
			"vector_scheme": "secded64",
			"solver":        "cg",
			"b":             rhs(nx*nx, 3),
			"tol":           1e-10,
		}
	}
	// A nonsymmetric upwind convection-diffusion operator shipped as raw
	// triplets, solved by FGMRES with the unverified inner solve: the
	// selective-reliability traffic shape. Row-wise diagonally dominant,
	// so the inner Richardson sweeps contract.
	selective := func(i int) map[string]any {
		const px, py = 1.5, 0.5
		rows := small * small
		var entries []map[string]any
		at := func(r, c int, v float64) {
			entries = append(entries, map[string]any{"row": r, "col": c, "val": v})
		}
		for j := 0; j < small; j++ {
			for k := 0; k < small; k++ {
				r := j*small + k
				diag := 4 + px + py
				if j > 0 {
					at(r, r-small, -(1 + py))
				} else {
					diag -= 1 + py
				}
				if k > 0 {
					at(r, r-1, -(1 + px))
				} else {
					diag -= 1 + px
				}
				at(r, r, diag+2)
				if k < small-1 {
					at(r, r+1, -1)
				}
				if j < small-1 {
					at(r, r+small, -1)
				}
			}
		}
		return map[string]any{
			"matrix":      map[string]any{"rows": rows, "cols": rows, "entries": entries},
			"scheme":      "secded64",
			"solver":      "fgmres",
			"reliability": "selective",
			"b":           rhs(rows, i),
			"tol":         1e-8,
		}
	}
	reqs := make([]request, 0, n)
	add := func(name string, payload map[string]any) error {
		matrix, err := json.Marshal(payload["matrix"])
		if err != nil {
			return err
		}
		delete(payload, "matrix")
		rest, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		rest[0] = ',' // every payload has fields besides its matrix
		reqs = append(reqs, request{scenario: name, matrix: matrix, rest: rest})
		return nil
	}
	for i := 0; len(reqs) < n; i++ {
		kind := scenario
		if scenario == "mixed" {
			switch r := rng.Float64(); {
			case r < 0.60:
				kind = "single"
			case r < 0.80:
				kind = "batch"
			default:
				// Coalesce bait arrives as a burst of identical requests —
				// the duplicate-heavy traffic shape the admission-time
				// coalescer exists for — so concurrent clients land them
				// in the queue together.
				for burst := 0; burst < 3 && len(reqs) < n; burst++ {
					if err := add("coalesce", coalesce(i)); err != nil {
						return nil, err
					}
				}
				continue
			}
		}
		var err error
		switch kind {
		case "single":
			err = add(kind, single(i))
		case "batch":
			err = add(kind, batch(i))
		case "coalesce":
			err = add(kind, coalesce(i))
		case "selective":
			err = add(kind, selective(i))
		default:
			return nil, fmt.Errorf("unknown scenario %q (choices: single, batch, coalesce, selective, mixed)", scenario)
		}
		if err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// post submits one solve — by handle when the matrix has been sent
// before, with the document otherwise or when the handle answers 404 —
// and demands a finished job in the answer.
func (d *driver) post(req request) error {
	key := string(req.matrix)
	d.mu.Lock()
	handle := d.handles[key]
	d.mu.Unlock()
	status, raw, err := d.send(req.body(handle))
	if err == nil && status == http.StatusNotFound && handle != "" {
		d.mu.Lock()
		d.fellBack++
		d.mu.Unlock()
		handle = ""
		status, raw, err = d.send(req.body(""))
	}
	if err != nil {
		return err
	}
	if status == http.StatusTooManyRequests {
		return errRejected
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(raw))
	}
	var st struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result struct {
			Operator string `json:"operator"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("job finished %q: %s", st.State, st.Error)
	}
	d.mu.Lock()
	if handle != "" {
		d.byHandle++
	}
	d.handles[key] = st.Result.Operator
	d.mu.Unlock()
	return nil
}

// errRejected is a solve the service turned away with 429 because its
// queue was full: overload the drive reports as such, not a failure.
var errRejected = errors.New("rejected: queue full (429)")

func (d *driver) send(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// quantile reads the q-th latency quantile from sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// scrapeCoalescing pulls the coalescing counters off /metrics.
func scrapeCoalescing(client *http.Client, addr string) (coalesced, widthCount string, err error) {
	resp, err := client.Get(strings.TrimRight(addr, "/") + "/metrics")
	if err != nil {
		return "", "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", "", err
	}
	coalesced, widthCount = "?", "?"
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "abftd_jobs_coalesced_total "); ok {
			coalesced = v
		}
		if v, ok := strings.CutPrefix(line, "abftd_batch_width_count "); ok {
			widthCount = v
		}
	}
	return coalesced, widthCount, nil
}
