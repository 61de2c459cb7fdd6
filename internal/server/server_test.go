package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	onesided "repro"
)

// newTestServer opens an engine over the canonical TC chain (n edges)
// and wraps it in a Server with the given config (Engine filled in).
func newTestServer(t *testing.T, n int, cfg Config) *Server {
	t.Helper()
	eng, err := onesided.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if _, err := eng.Load("t(X, Y) :- a(X, Z), t(Z, Y).\nt(X, Y) :- b(X, Y).\n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		eng.AddFact("a", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		eng.AddFact("b", fmt.Sprintf("n%d", i), fmt.Sprintf("m%d", i))
	}
	cfg.Engine = eng
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// do issues one request against the handler and returns the recorder.
func do(t *testing.T, srv *Server, method, path, tenant string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func TestQueryEndpoint(t *testing.T) {
	srv := newTestServer(t, 5, Config{})
	w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 5 || len(resp.Answers) != 5 {
		t.Fatalf("count = %d answers = %v, want 5 (m0..m4)", resp.Count, resp.Answers)
	}
	if resp.Strategy != "onesided" {
		t.Fatalf("strategy = %q, want onesided", resp.Strategy)
	}
}

func TestQueryBadRequest(t *testing.T) {
	srv := newTestServer(t, 3, Config{})
	req := httptest.NewRequest("POST", "/v1/query", strings.NewReader("{not json"))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status = %d", w.Code)
	}
	if w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n0"}); w.Code != http.StatusBadRequest {
		t.Fatalf("unparsable query: status = %d", w.Code)
	}
}

// TestGasQuota429 is the acceptance scenario: a runaway recursive query
// from a gas-capped tenant aborts with 429 in bounded time, and the
// engine keeps serving other tenants.
func TestGasQuota429(t *testing.T) {
	srv := newTestServer(t, 20000, Config{
		Tenants: map[string]onesided.Quota{
			"capped": {MaxDerived: 10_000},
		},
	})
	start := time.Now()
	w := do(t, srv, "POST", "/v1/query", "capped", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("capped tenant: status = %d, body %s", w.Code, w.Body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gas abort took %s, want bounded", elapsed)
	}
	var e errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "gas") {
		t.Fatalf("error body = %s", w.Body)
	}
	// The uncapped default tenant is still served by the same engine.
	w = do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n19990, Y)"})
	if w.Code != http.StatusOK {
		t.Fatalf("other tenant after gas abort: status = %d, body %s", w.Code, w.Body)
	}
}

func TestDeadline504(t *testing.T) {
	srv := newTestServer(t, 2000, Config{
		Tenants: map[string]onesided.Quota{
			"hurried": {MaxDeadline: time.Nanosecond},
		},
	})
	w := do(t, srv, "POST", "/v1/query", "hurried", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	// The request timeout is capped by MaxDeadline, not extended by it.
	w = do(t, srv, "POST", "/v1/query", "hurried", queryRequest{Query: "t(n0, Y)", TimeoutMS: 60_000})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout_ms above cap: status = %d", w.Code)
	}
}

func TestStreamEndpoint(t *testing.T) {
	srv := newTestServer(t, 5, Config{})
	w := do(t, srv, "POST", "/v1/query/stream", "", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	sc := bufio.NewScanner(w.Body)
	rows, terminal := 0, 0
	var last streamLine
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			terminal++
			last = line
		} else {
			rows++
		}
	}
	if rows != 5 || terminal != 1 {
		t.Fatalf("rows = %d terminal = %d, want 5 and 1", rows, terminal)
	}
	if last.Count != 5 || last.Error != "" || last.Strategy != "onesided" {
		t.Fatalf("terminal line = %+v", last)
	}
}

// TestStreamGasVerdictInTrailer: a governance abort that lands after
// the 200 is committed travels in the terminal NDJSON line.
func TestStreamGasVerdictInTrailer(t *testing.T) {
	srv := newTestServer(t, 20000, Config{
		DefaultQuota: onesided.Quota{MaxDerived: 10_000},
	})
	w := do(t, srv, "POST", "/v1/query/stream", "", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d (stream commits 200 before evaluating)", w.Code)
	}
	sc := bufio.NewScanner(w.Body)
	var last streamLine
	for sc.Scan() {
		json.Unmarshal(sc.Bytes(), &last)
	}
	if !last.Done || last.Status != http.StatusTooManyRequests || !strings.Contains(last.Error, "gas") {
		t.Fatalf("terminal line = %+v, want done with 429 gas error", last)
	}
}

func TestFactsIngestAndTenantQuota(t *testing.T) {
	srv := newTestServer(t, 0, Config{
		Tenants: map[string]onesided.Quota{
			"small": {MaxFacts: 2},
		},
	})
	w := do(t, srv, "POST", "/v1/facts", "small", factsRequest{Facts: []fact{
		{Pred: "a", Args: []string{"x", "y"}},
		{Pred: "a", Args: []string{"x", "y"}}, // duplicate
		{Pred: "a", Args: []string{"y", "z"}},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp factsResponse
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp.Added != 2 || resp.Duplicates != 1 {
		t.Fatalf("resp = %+v, want 2 added 1 duplicate", resp)
	}
	// The tenant is now at its MaxFacts; the next insert is a 429.
	w = do(t, srv, "POST", "/v1/facts", "small", factsRequest{Facts: []fact{
		{Pred: "a", Args: []string{"z", "w"}},
	}})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota ingest: status = %d, body %s", w.Code, w.Body)
	}
	// Another tenant is unaffected, and rules load through the same
	// endpoint.
	w = do(t, srv, "POST", "/v1/facts", "other", factsRequest{
		Facts: []fact{{Pred: "a", Args: []string{"z", "w"}}},
		Rules: []string{"r(X, Y) :- a(X, Y)."},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("other tenant: status = %d, body %s", w.Code, w.Body)
	}
	if w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "r(z, Y)"}); w.Code != http.StatusOK {
		t.Fatalf("query over ingested rule: status = %d, body %s", w.Code, w.Body)
	}
}

func TestBatchEndpoint(t *testing.T) {
	srv := newTestServer(t, 5, Config{})
	w := do(t, srv, "POST", "/v1/batch", "", batchRequest{Queries: []string{"t(n0, Y)", "t(n3, Y)"}})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp batchResponse
	json.Unmarshal(w.Body.Bytes(), &resp)
	if len(resp.Results) != 2 || resp.Results[0].Count != 5 || resp.Results[1].Count != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if w := do(t, srv, "POST", "/v1/batch", "", batchRequest{}); w.Code != http.StatusBadRequest {
		t.Fatalf("empty batch: status = %d", w.Code)
	}
}

func TestSaturation503(t *testing.T) {
	srv := newTestServer(t, 5, Config{MaxConcurrent: 1, AdmissionWait: time.Millisecond})
	// Occupy the only evaluation slot directly; an in-package test can.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()
	w := do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n0, Y)"})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 while saturated", w.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t, 20000, Config{
		Tenants: map[string]onesided.Quota{"capped": {MaxDerived: 10_000}},
	})
	do(t, srv, "POST", "/v1/query", "", queryRequest{Query: "t(n19990, Y)"})
	do(t, srv, "POST", "/v1/query", "capped", queryRequest{Query: "t(n0, Y)"})
	w := do(t, srv, "GET", "/v1/stats", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Requests != 3 || resp.Served != 1 || resp.GasExhausted != 1 {
		t.Fatalf("stats = %+v", resp)
	}
	if resp.Tenants["capped"].GasExhausted != 1 || resp.Tenants[defaultTenant].Requests != 1 {
		t.Fatalf("tenant stats = %+v", resp.Tenants)
	}
	if resp.Tuples == 0 || resp.PlanCache == "" {
		t.Fatalf("engine stats missing: %+v", resp)
	}
}

// TestFactsArityMismatch400 pins that a fact of the wrong arity from a
// client is a 400, not a handler panic, and leaves the server serving.
func TestFactsArityMismatch400(t *testing.T) {
	srv := newTestServer(t, 3, Config{})
	before := srv.cfg.Engine.DB().TupleCount()
	w := do(t, srv, "POST", "/v1/facts", "", factsRequest{Facts: []fact{
		{Pred: "a", Args: []string{"x", "y"}},
		{Pred: "a", Args: []string{"x"}},
	}})
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "relation a has arity 2") {
		t.Fatalf("mismatched arity: status = %d, body %s", w.Code, w.Body)
	}
	if got := srv.cfg.Engine.DB().TupleCount(); got != before {
		t.Fatalf("TupleCount %d after rejected batch, want %d", got, before)
	}
	w = do(t, srv, "POST", "/v1/facts", "", factsRequest{Facts: []fact{{Pred: "a", Args: []string{"x", "y"}}}})
	if w.Code != http.StatusOK {
		t.Fatalf("valid ingest after a rejected one: status = %d, body %s", w.Code, w.Body)
	}
}

// TestFactsNotDurable503 pins that /v1/facts never acks a write the
// log failed to journal: with the log closed under it, ingest is a 503.
func TestFactsNotDurable503(t *testing.T) {
	eng, err := onesided.Open(onesided.WithPersistence(t.TempDir()), onesided.WithSyncPolicy(onesided.SyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	body := factsRequest{Facts: []fact{{Pred: "a", Args: []string{"x", "y"}}}}
	if w := do(t, srv, "POST", "/v1/facts", "", body); w.Code != http.StatusOK {
		t.Fatalf("ingest on a healthy log: status = %d, body %s", w.Code, w.Body)
	}
	if err := eng.Log().Close(); err != nil {
		t.Fatal(err)
	}
	body.Facts[0].Args = []string{"y", "z"}
	if w := do(t, srv, "POST", "/v1/facts", "", body); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after log close: status = %d, body %s", w.Code, w.Body)
	}
}
