package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"abft/internal/csr"
	"abft/internal/mm"
	"abft/internal/service"
)

const (
	// warmNX is svc_warm's grid side: 4,096 rows, so the solve is a
	// minority of a request and the service's own layers (admission,
	// cache, queue, JSON) carry the time.
	warmNX = 64
	// burstNX is svc_burst's grid side: 1,024 rows keep a whole burst of
	// nine solves short enough to fit between two interference episodes.
	burstNX = 32
	// warmTol keeps svc_warm's solve to about a third of the request.
	warmTol = 1e-4
	// burstTol and blockerTol differ so the blocker cannot coalesce
	// with the singles queued behind it.
	burstTol, blockerTol = 1e-4, 1e-5
	// burstSingles is the coalesced batch every burst must produce.
	burstSingles = 8
)

// checkJob applies the guards every finished job must pass: done,
// converged, past the eigenvector trap, and a true residual within
// tolerance recomputed on the plain matrix.
func checkJob(st service.JobStatus, plain *csr.Matrix, b []float64, tol float64) bool {
	r := st.Result
	return st.State == service.StateDone && r != nil && r.Converged &&
		r.Iterations >= minIterations && len(r.X) == len(b) && residualOK(plain, b, r.X, tol)
}

// ---------------------------------------------------------------------
// svc_warm

// warmShared is the benchmark's side of svc_warm: the request document
// and the seeded right-hand sides, shared by every set-up of a run.
type warmShared struct {
	plain   *csr.Matrix
	prefix  []byte // the request JSON up to the opening of the b array
	body    []byte
	rng     *rand.Rand
	coldB   []float64
	b, xRef []float64
	scratch *refScratch
}

type warmInstance struct {
	*warmShared
	svc   *service.Server
	stats service.CacheStats // at the end of set-up
}

// prepareWarm builds the request every svc_warm client sends: the 64x64
// operator as an inline MatrixMarket document, CSR with SECDED64 on
// elements and row pointers, unprotected vectors, CG to 1e-4. Format and
// shard count are pinned; left free, admission-time autotuning would
// pick a different operator than the one this workload is about.
func prepareWarm(seed int64) (setupFunc, error) {
	plain := csr.Laplacian2D(warmNX, warmNX)
	n := plain.Rows()
	var doc strings.Builder
	if err := mm.Write(&doc, plain); err != nil {
		return nil, err
	}
	head, err := json.Marshal(service.SolveRequest{
		Matrix: service.MatrixSpec{MatrixMarket: doc.String()},
		Format: "csr", Scheme: "secded64", RowPtrScheme: "secded64", Shards: 1,
		Tol: warmTol, RelativeTol: true,
	})
	if err != nil {
		return nil, err
	}
	w := &warmShared{
		plain:  plain,
		prefix: append(head[:len(head)-1:len(head)-1], `,"b":[`...),
		rng:    rand.New(rand.NewSource(seed)),
		coldB:  make([]float64, n),
		b:      make([]float64, n), xRef: make([]float64, n), scratch: newRefScratch(n),
	}
	rhs(w.rng, w.coldB)
	// Set-up is NewService plus the first, cold request: MatrixMarket
	// parse, content hash, operator encode, solve. The cache-miss path
	// is measured here and nowhere else.
	return func(tr *tracer) (instance, error) {
		in := &warmInstance{warmShared: w, svc: service.New(service.Config{Workers: 1})}
		st, _, err := w.post(in.svc, w.coldB)
		if err == nil && (!checkJob(st, plain, w.coldB, warmTol) || st.Result.CacheHit) {
			err = fmt.Errorf("cold request: state %s, error %q", st.State, st.Error)
		}
		if err != nil {
			in.svc.Close()
			return nil, err
		}
		tr.add("service.build_ms", st.Trace.StageSeconds[service.StageBuild]*1e3)
		in.stats = in.svc.CacheStats()
		return in, nil
	}, nil
}

// post sends one waited solve through the handler and times it from
// the request bytes being ready to the response bytes being written.
// There is no socket: a recorder stands in for the connection.
func (w *warmShared) post(svc *service.Server, b []float64) (service.JobStatus, time.Duration, error) {
	w.body = append(w.body[:0], w.prefix...)
	for i, v := range b {
		if i > 0 {
			w.body = append(w.body, ',')
		}
		w.body = strconv.AppendFloat(w.body, v, 'g', -1, 64)
	}
	w.body = append(w.body, "]}"...)

	start := time.Now()
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve?wait=1", bytes.NewReader(w.body)))
	wall := time.Since(start)

	var st service.JobStatus
	if rec.Code != http.StatusOK {
		return st, wall, fmt.Errorf("POST /v1/solve: status %d: %s", rec.Code, rec.Body.String())
	}
	return st, wall, json.Unmarshal(rec.Body.Bytes(), &st)
}

func (in *warmInstance) op(tr *tracer) opResult {
	rhs(in.rng, in.b)
	start := time.Now()
	_, refOK := refCG(in.plain, in.b, in.xRef, in.scratch, warmTol, len(in.b))
	ref := time.Since(start)

	st, wall, err := in.post(in.svc, in.b)
	r := opResult{ref: ref, sut: wall, attempted: 1}
	// Every request after the cold one must find the operator resident.
	if err != nil || !refOK || !checkJob(st, in.plain, in.b, warmTol) || !st.Result.CacheHit {
		r.failed = 1
		return r
	}
	if tr != nil && st.Trace != nil && st.Finished != nil {
		stage := st.Trace.StageSeconds
		tr.add("service.admission_ms", stage[service.StageAdmission]*1e3)
		// The queue_wait span starts when admission starts.
		tr.add("service.queue_ms", (stage[service.StageQueueWait]-stage[service.StageAdmission])*1e3)
		tr.add("service.solve_ms", stage[service.StageSolve]*1e3)
		tr.add("service.http_json_ms", millis(wall-st.Finished.Sub(st.Submitted)))
		tr.add("solvers.warm_iters", float64(st.Result.Iterations))
	}
	return r
}

func (in *warmInstance) close(tr *tracer) {
	end := in.svc.CacheStats()
	hits, builds := end.Hits-in.stats.Hits, end.Builds-in.stats.Builds
	if hits+builds > 0 {
		tr.add("service.cache_hit_frac", float64(hits)/float64(hits+builds))
	}
	in.svc.Close()
}

// ---------------------------------------------------------------------
// svc_burst

type burstShared struct {
	plain   *csr.Matrix
	rng     *rand.Rand
	coldB   []float64
	bs      [1 + burstSingles][]float64 // the blocker's, then the singles'
	tols    [1 + burstSingles]float64
	xRef    []float64
	scratch *refScratch
}

type burstInstance struct {
	*burstShared
	svc *service.Server
}

// burstRequest is a single-RHS solve on the generated 32x32 grid: CSR,
// SECDED64 on elements and vectors, CG. Shards is pinned for the same
// reason as in svc_warm.
func burstRequest(b []float64, tol float64) service.SolveRequest {
	return service.SolveRequest{
		Matrix: service.MatrixSpec{Grid: &service.GridSpec{NX: burstNX, NY: burstNX}},
		Format: "csr", Scheme: "secded64", VectorScheme: "secded64", Shards: 1,
		Tol: tol, RelativeTol: true, B: b,
	}
}

func prepareBurst(seed int64) (setupFunc, error) {
	plain := csr.Laplacian2D(burstNX, burstNX)
	n := plain.Rows()
	w := &burstShared{
		plain: plain, rng: rand.New(rand.NewSource(seed)),
		coldB: make([]float64, n), xRef: make([]float64, n), scratch: newRefScratch(n),
	}
	for i := range w.bs {
		w.bs[i] = make([]float64, n)
		w.tols[i] = burstTol
	}
	w.tols[0] = blockerTol
	rhs(w.rng, w.coldB)
	// Set-up is NewService plus the first, cold grid request.
	return func(*tracer) (instance, error) {
		in := &burstInstance{burstShared: w, svc: service.New(service.Config{Workers: 1})}
		id, err := in.svc.Submit(burstRequest(w.coldB, burstTol))
		var st service.JobStatus
		if err == nil {
			st, err = in.svc.Wait(id)
		}
		if err == nil && (!checkJob(st, plain, w.coldB, burstTol) || st.Result.CacheHit) {
			err = fmt.Errorf("cold request: state %s, error %q", st.State, st.Error)
		}
		if err != nil {
			in.svc.Close()
			return nil, err
		}
		return in, nil
	}, nil
}

// op is one burst. The driver submits a blocker and then eight
// identical-option singles with distinct right-hand sides, and waits
// for all nine. With one worker the singles queue behind the blocker,
// so the coalescer must merge them into one BlockCG of width eight;
// without the blocker the leader is sealed whenever the worker happens
// to wake (measured widths 2-7), which is noise, not a workload.
func (in *burstInstance) op(tr *tracer) opResult {
	tols := in.tols
	for i := range in.bs {
		rhs(in.rng, in.bs[i])
	}
	// The reference is the same nine systems solved one after another.
	refOK := true
	start := time.Now()
	for i, b := range in.bs {
		_, ok := refCG(in.plain, b, in.xRef, in.scratch, tols[i], len(b))
		refOK = refOK && ok
	}
	ref := time.Since(start)

	var ids [len(in.bs)]string
	var sts [len(in.bs)]service.JobStatus
	var err error
	start = time.Now()
	for i := range in.bs {
		if ids[i], err = in.svc.Submit(burstRequest(in.bs[i], tols[i])); err != nil {
			break
		}
	}
	for i := range ids {
		if err != nil {
			break
		}
		sts[i], err = in.svc.Wait(ids[i])
	}
	r := opResult{ref: ref, sut: time.Since(start), attempted: len(in.bs)}
	if err != nil || !refOK {
		r.failed = r.attempted
		return r
	}
	var width, coalesced, iters int
	for i, st := range sts {
		ok := checkJob(st, in.plain, in.bs[i], tols[i])
		if ok && i > 0 {
			ok = st.Result.BatchWidth == burstSingles && st.Result.Coalesced
			width += st.Result.BatchWidth
			iters = max(iters, st.Result.Iterations)
			if st.Result.Coalesced {
				coalesced++
			}
		}
		if !ok {
			r.failed++
		}
	}
	tr.add("service.batch_width", float64(width)/burstSingles)
	tr.add("service.coalesced_frac", float64(coalesced)/burstSingles)
	tr.add("solvers.blockcg_iters", float64(iters))
	return r
}

func (in *burstInstance) close(*tracer) { in.svc.Close() }
