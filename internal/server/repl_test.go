package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	onesided "repro"
	"repro/internal/replica"
)

// replPair wires a primary server (persistent engine + repl mount) and a
// follower server (read-only engine tailing it) through real HTTP.
type replPair struct {
	primary  *onesided.Engine
	follower *onesided.Engine
	psrv     *httptest.Server
	fsrv     *Server
	f        *replica.Follower
}

func newReplPair(t *testing.T) *replPair {
	t.Helper()
	peng, err := onesided.Open(onesided.WithPersistence(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peng.Close() })
	ps, err := New(Config{Engine: peng, Repl: replica.NewSource(peng.Log(), peng.DB())})
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(ps)
	t.Cleanup(psrv.Close)

	feng, err := onesided.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { feng.Close() })
	f, err := replica.Start(replica.FollowerConfig{
		Engine:       feng,
		Primary:      psrv.URL,
		Dir:          t.TempDir(),
		PollInterval: 50 * time.Millisecond,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := New(Config{
		Engine:      feng,
		PrimaryURL:  psrv.URL,
		Replication: f.Stats,
		EpochWait:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &replPair{primary: peng, follower: feng, psrv: psrv, fsrv: fs, f: f}
}

func doReq(t *testing.T, srv *Server, method, path string, hdr map[string]string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func TestFollowerRejectsWritesWithRedirect(t *testing.T) {
	p := newReplPair(t)
	w := doReq(t, p.fsrv, "POST", "/v1/facts", nil,
		factsRequest{Facts: []fact{{Pred: "edge", Args: []string{"a", "b"}}}})
	if w.Code != http.StatusMisdirectedRequest {
		t.Fatalf("follower write = %d, want 421 (body %s)", w.Code, w.Body)
	}
	if loc := w.Header().Get("Location"); loc != p.psrv.URL+"/v1/facts" {
		t.Fatalf("Location = %q, want primary facts URL", loc)
	}
}

// TestAtEpochBarrierServesReadYourWrites: a follower read at the
// primary's epoch after a write sees the whole write, whether it was
// one fact or a batch — the primary's epoch advances once per accepted
// fact, exactly as the follower's does when it applies the batch's
// records one by one — and both epochs agree once the follower caught
// up.
func TestAtEpochBarrierServesReadYourWrites(t *testing.T) {
	edges := func(lo, hi int) []onesided.Fact {
		var out []onesided.Fact
		for i := lo; i < hi; i++ {
			out = append(out, onesided.Fact{Pred: "edge", Args: []string{"a", "b" + strconv.Itoa(i)}})
		}
		return out
	}
	cases := []struct {
		name  string
		write func(t *testing.T, eng *onesided.Engine)
		want  int
	}{
		{"AddFact", func(t *testing.T, eng *onesided.Engine) {
			eng.AddFact("edge", "a", "b")
		}, 1},
		{"InsertFacts", func(t *testing.T, eng *onesided.Engine) {
			if n, err := eng.InsertFacts(edges(0, 16)); err != nil || n != 16 {
				t.Fatalf("InsertFacts = %d, %v; want 16", n, err)
			}
		}, 16},
		{"RetractFacts", func(t *testing.T, eng *onesided.Engine) {
			if n, err := eng.InsertFacts(edges(0, 16)); err != nil || n != 16 {
				t.Fatalf("InsertFacts = %d, %v; want 16", n, err)
			}
			if n, err := eng.RetractFacts(edges(0, 8)); err != nil || n != 8 {
				t.Fatalf("RetractFacts = %d, %v; want 8", n, err)
			}
		}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newReplPair(t)
			if _, err := p.primary.Load("t(X, Y) :- edge(X, Y)."); err != nil {
				t.Fatal(err)
			}
			tc.write(t, p.primary)
			epoch := p.primary.DB().Epoch()

			// A follower read at the primary's epoch must include the
			// whole write, even if the request races the apply loop: the
			// barrier waits.
			w := doReq(t, p.fsrv, "POST", "/v1/query",
				map[string]string{atEpochHeader: strconv.FormatUint(epoch, 10)},
				queryRequest{Query: "t(a, Y)"})
			if w.Code != http.StatusOK {
				t.Fatalf("at-epoch query = %d (body %s)", w.Code, w.Body)
			}
			var resp queryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Count != tc.want {
				t.Fatalf("answers at epoch %d = %d, want %d (%+v)", epoch, resp.Count, tc.want, resp)
			}
			if got := w.Header().Get(epochHeader); got == "" || got == "0" {
				t.Fatalf("response %s = %q, want the applied epoch", epochHeader, got)
			}

			deadline := time.Now().Add(10 * time.Second)
			for p.follower.DB().Epoch() < epoch {
				if time.Now().After(deadline) {
					t.Fatalf("follower never caught up: %+v", p.f.Stats())
				}
				time.Sleep(5 * time.Millisecond)
			}
			if pe, fe := p.primary.DB().Epoch(), p.follower.DB().Epoch(); pe != fe {
				t.Fatalf("primary epoch %d, follower epoch %d after catch-up", pe, fe)
			}
		})
	}
}

func TestAtEpochBarrierTooEarly(t *testing.T) {
	eng, err := onesided.Open()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := New(Config{Engine: eng, EpochWait: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing will ever apply epoch 99 here.
	w := doReq(t, srv, "POST", "/v1/query",
		map[string]string{atEpochHeader: "99"}, queryRequest{Query: "t(a, Y)"})
	if w.Code != http.StatusTooEarly {
		t.Fatalf("unreachable epoch = %d, want 425 (body %s)", w.Code, w.Body)
	}
	w = doReq(t, srv, "POST", "/v1/query",
		map[string]string{atEpochHeader: "not-a-number"}, queryRequest{Query: "t(a, Y)"})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("garbage epoch = %d, want 400", w.Code)
	}
}

func TestStatsReportRoleAndReplication(t *testing.T) {
	p := newReplPair(t)
	p.primary.AddFact("p", "x")
	// Wait for the follower to catch up so lag figures are settled.
	deadline := time.Now().Add(10 * time.Second)
	for p.follower.DB().Epoch() < p.primary.DB().Epoch() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never caught up: %+v", p.f.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}

	w := doReq(t, p.fsrv, "GET", "/v1/stats", nil, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("stats = %d", w.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "follower" {
		t.Fatalf("role = %q, want follower", st.Role)
	}
	if st.Replication == nil {
		t.Fatal("stats missing replication block")
	}
	if st.Replication.State != "tailing" {
		t.Fatalf("replication state = %q, want tailing", st.Replication.State)
	}
	if st.Replication.LagEpochs != 0 {
		t.Fatalf("lag_epochs = %d after catch-up", st.Replication.LagEpochs)
	}
	if st.Epoch != p.primary.DB().Epoch() {
		t.Fatalf("epoch = %d, want %d", st.Epoch, p.primary.DB().Epoch())
	}
}
