package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	onesided "repro"
	"repro/internal/replica"
	"repro/internal/server"
)

// node is one self-hosted osrd: an engine behind internal/server on a
// loopback listener.
type node struct {
	eng *onesided.Engine
	hs  *http.Server
	url string
	dir string // the primary's WAL directory or the follower's mirror
	fol *replica.Follower
}

// serve starts an HTTP server for h on an ephemeral loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return hs, "http://" + ln.Addr().String(), nil
}

// startPrimary opens a SyncAlways engine with its WAL in a fresh
// directory under workdir and serves it; with repl set it also serves
// its log to followers.
func startPrimary(workdir string, repl bool, tr *tracer) (*node, error) {
	dir, err := os.MkdirTemp(workdir, "primary-")
	if err != nil {
		return nil, err
	}
	eng, err := onesided.Open(onesided.WithPersistence(dir), onesided.WithSyncPolicy(onesided.SyncAlways))
	if err != nil {
		return nil, err
	}
	cfg := server.Config{Engine: eng}
	if repl {
		cfg.Repl = replica.NewSource(eng.Log(), eng.DB())
	}
	srv, err := server.New(cfg)
	if err != nil {
		eng.Close()
		return nil, err
	}
	hs, u, err := serve(tr.wrap(srv))
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &node{eng: eng, hs: hs, url: u, dir: dir}, nil
}

// startFollower starts an in-memory engine that tails primary over
// loopback, mirroring into a fresh directory, and serves it.
func startFollower(workdir string, primary *node, tr *tracer) (*node, error) {
	dir, err := os.MkdirTemp(workdir, "follower-")
	if err != nil {
		return nil, err
	}
	eng, err := onesided.Open()
	if err != nil {
		return nil, err
	}
	fol, err := replica.Start(replica.FollowerConfig{Engine: eng, Primary: primary.url, Dir: dir})
	if err != nil {
		eng.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{Engine: eng, PrimaryURL: primary.url, Replication: fol.Stats})
	if err != nil {
		eng.Close()
		return nil, err
	}
	hs, u, err := serve(tr.wrap(srv))
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &node{eng: eng, hs: hs, url: u, dir: dir, fol: fol}, nil
}

// close stops the server, then the engine (and with it a follower's
// tail loop), and removes the node's directory.
func (n *node) close() error {
	if n == nil {
		return nil
	}
	n.hs.Close()
	err := n.eng.Close()
	if rerr := os.RemoveAll(n.dir); err == nil {
		err = rerr
	}
	return err
}

// newConn returns a client limited to one connection per host: the
// generator's unit of concurrency.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// queryResp is the /v1/query response.
type queryResp struct {
	Answers   [][]string `json:"answers"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

// callOpts are the per-call extras: a read-your-writes epoch barrier
// and the trace ids to forward to the server.
type callOpts struct {
	atEpoch     uint64
	req, parent int64
}

// post sends a JSON body and decodes a 200 response into out, returning
// the status code.
func post(c *http.Client, u string, body, out any, o callOpts) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if o.atEpoch > 0 {
		req.Header.Set("X-At-Epoch", strconv.FormatUint(o.atEpoch, 10))
	}
	if o.req != 0 {
		req.Header.Set(traceHeader, traceHeaderValue(o.req, o.parent))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, fmt.Errorf("%s: %s", u, resp.Status)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

func query(c *http.Client, base, q string, o callOpts) (queryResp, int, error) {
	var out queryResp
	code, err := post(c, base+"/v1/query", map[string]string{"query": q}, &out, o)
	return out, code, err
}

// factsResp is the /v1/facts response.
type factsResp struct {
	Added     int `json:"added"`
	Retracted int `json:"retracted"`
}

func postFacts(c *http.Client, base string, facts, retracts []fact, rules []string, o callOpts) (factsResp, int, error) {
	var out factsResp
	code, err := post(c, base+"/v1/facts",
		map[string]any{"facts": facts, "retracts": retracts, "rules": rules}, &out, o)
	return out, code, err
}

// ingest loads facts (in 500-fact requests, as cmd/loadgen does) and
// then the rules.
func ingest(c *http.Client, base string, in *inputs) error {
	const chunk = 500
	for i := 0; i < len(in.Facts); i += chunk {
		if _, _, err := postFacts(c, base, in.Facts[i:min(i+chunk, len(in.Facts))], nil, nil, callOpts{}); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
	}
	if _, _, err := postFacts(c, base, nil, nil, in.Rules, callOpts{}); err != nil {
		return fmt.Errorf("ingest rules: %w", err)
	}
	return nil
}

// subEvent is one /v1/subscribe line with its arrival time.
type subEvent struct {
	Add    [][]string `json:"add"`
	Remove [][]string `json:"remove"`
	Error  string     `json:"error"`
	At     time.Time  `json:"-"`
}

// subscriber holds a /v1/subscribe stream open and keeps every event.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	events []subEvent
	err    error
}

// subscribe opens the stream and waits for the initial snapshot event.
func subscribe(c *http.Client, base, q string) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe?query="+url.QueryEscape(q), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("/v1/subscribe: %s", resp.Status)
	}
	s := &subscriber{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 64<<20)
		for sc.Scan() {
			var ev subEvent
			err := json.Unmarshal(sc.Bytes(), &ev)
			ev.At = time.Now()
			s.mu.Lock()
			switch {
			case err != nil:
				s.err = err
			case ev.Error != "":
				s.err = fmt.Errorf("subscription: %s", ev.Error)
			default:
				s.events = append(s.events, ev)
			}
			failed := s.err != nil
			s.mu.Unlock()
			if failed {
				return
			}
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		evs, err := s.snapshot()
		if len(evs) > 0 {
			return s, nil
		}
		if err != nil || time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("no subscription snapshot: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// snapshot returns the events received so far and the stream's error.
func (s *subscriber) snapshot() ([]subEvent, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]subEvent(nil), s.events...), s.err
}

// stop closes the stream and waits for the reader to exit.
func (s *subscriber) stop() {
	s.cancel()
	<-s.done
}
