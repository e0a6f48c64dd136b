// abftdclient: round-trip the abftd solve service. With no flags it
// starts a service in-process on an ephemeral port (so the example is
// self-contained); point -addr at a running daemon (`go run ./cmd/abftd`)
// to talk to that instead.
//
//	go run ./examples/abftdclient
//	go run ./examples/abftdclient -addr localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"abft"
)

func main() {
	addr := flag.String("addr", "", "abftd address (empty: start one in-process)")
	flag.Parse()

	base := "http://" + *addr
	if *addr == "" {
		// Self-host: the facade boots the full service — worker pool,
		// operator cache, scrub daemon — behind a real socket.
		svc := abft.NewService(abft.ServiceConfig{Workers: 4, ScrubInterval: time.Second})
		defer svc.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		go http.Serve(ln, svc)
		base = "http://" + ln.Addr().String()
		fmt.Printf("self-hosted abftd on %s\n\n", ln.Addr())
	}

	// The solve: a 64x64 Poisson operator under full SECDED64 element
	// and row-pointer protection, solved by CG. The first request carries
	// the matrix and pays the ECC encode; its result echoes the digest of
	// the source, and the repeats send that handle in place of the matrix
	// — cache hits the service recognises without reading a document.
	matrix := abft.SolveMatrixSpec{Grid: &abft.SolveGridSpec{NX: 64, NY: 64}}
	req := abft.SolveRequest{
		Matrix:       matrix,
		Format:       "csr",
		Scheme:       "secded64",
		RowPtrScheme: "secded64",
		Solver:       "cg",
		B:            ramp(64 * 64),
		Tol:          1e-10,
	}
	var last abft.SolveJobStatus
	for attempt := 1; attempt <= 3; attempt++ {
		st, code := solve(base, req)
		if code == http.StatusNotFound {
			// The service no longer holds an operator for the handle
			// (evicted, or restarted): send the matrix again.
			req.Matrix = matrix
			st, code = solve(base, req)
		}
		if code != http.StatusOK || st.State != "done" {
			log.Fatalf("job %s: status %d, %s (%s)", st.ID, code, st.State, st.Error)
		}
		r := st.Result
		fmt.Printf("solve %d: job %s %s — %d iterations, residual %.3e, cache_hit=%v, by handle=%v\n",
			attempt, st.ID, st.State, r.Iterations, r.ResidualNorm, r.CacheHit, req.Matrix.Operator != "")
		req.Matrix = abft.SolveMatrixSpec{Operator: r.Operator}
		last = st
	}

	// Where the last job's wall-clock went, stage by stage: the full
	// trace behind the summary every JobStatus already carries.
	resp0, err := http.Get(base + "/v1/jobs/" + last.ID + "/trace")
	if err != nil {
		log.Fatal(err)
	}
	var tr abft.SolveTrace
	if err := json.NewDecoder(resp0.Body).Decode(&tr); err != nil {
		log.Fatal(err)
	}
	resp0.Body.Close()
	fmt.Println("\ntrace of the last job:")
	for _, sp := range tr.Spans {
		fmt.Printf("  %-10s %10.1fµs  %s\n", sp.Stage, sp.Seconds*1e6, sp.Detail)
	}
	fmt.Printf("  %d residuals recorded; final %.3e\n",
		len(tr.Residuals), last.Result.ResidualNorm)

	// A few service metrics, Prometheus text format.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	fmt.Println("\nselected /metrics:")
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "abftd_cache_") || strings.HasPrefix(line, "abftd_scrub_passes") {
			fmt.Println("  " + line)
		}
	}
}

// solve posts one waited request and returns the decoded job with the
// HTTP status (404: the operator handle is not resident).
func solve(base string, req abft.SolveRequest) (abft.SolveJobStatus, int) {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/solve?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st abft.SolveJobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			log.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// ramp is a non-trivial right-hand side (the all-ones vector is an
// eigenvector of the Laplacian).
func ramp(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i%13) - 6
	}
	return b
}
