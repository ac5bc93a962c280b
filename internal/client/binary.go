package client

// binaryTransport speaks the pipelined tagged-frame client protocol
// (internal/server/clientproto.go) to each member's internal TCP address:
// one hello-upgraded connection pool per node, many in-flight calls
// multiplexed per connection, ring epoch prefixed on every response
// payload. The BinClient layer deliberately does not retry — a connection
// teardown fails its in-flight calls exactly once, and the translation
// here turns those into retryable errors so the Client's ring walk decides
// where the retry goes.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"pbs/internal/server"
)

// DialBinary bootstraps the cluster view from any node's HTTP /config
// endpoint (the one piece of HTTP a client speaks — the seed URL is an
// HTTP base URL), then returns a routing client whose data plane speaks
// the binary protocol to every member's internal address.
func DialBinary(seedURL string) (*Client, error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	resp, err := hc.Get(strings.TrimRight(seedURL, "/") + "/config")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("client: config fetch: %s", resp.Status)
	}
	var cfg server.ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		return nil, fmt.Errorf("client: config fetch: %w", err)
	}
	v, err := buildView(cfg)
	if err != nil {
		return nil, err
	}
	c := &Client{tr: &binaryTransport{conns: make(map[string]*server.BinClient)}}
	c.tr.notify = c.noteEpoch
	c.view.Store(v)
	return c, nil
}

// binaryTransport performs list calls against single members, answering
// into caller-owned slices; routing across members is the Client's job.
// Safe for concurrent use.
type binaryTransport struct {
	// notify receives the ring epoch carried on each response, feeding the
	// client's view-refresh loop. Set once before the client is shared.
	notify func(epoch uint64)

	mu     sync.Mutex
	conns  map[string]*server.BinClient
	closed bool
}

func (t *binaryTransport) conn(m server.MemberInfo) (*server.BinClient, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errors.New("client: transport closed")
	}
	bc := t.conns[m.Internal]
	if bc == nil {
		bc = server.NewBinClient(m.Internal)
		t.conns[m.Internal] = bc
	}
	return bc, nil
}

// translate maps binary-protocol failures onto the client's retry
// vocabulary: typed server errors keep their own retryability verdict
// (CodeUnavailable routes around, quorum verdicts are final), and
// anything else is a transport-level failure (conn refused or reset, a
// torn-down mux connection failing its in-flight calls exactly once)
// where another node may well answer.
func translate(err error) error {
	if err == nil {
		return nil
	}
	var ce *server.ClientError
	if errors.As(err, &ce) {
		werr := fmt.Errorf("client: %s", ce.Msg)
		if ce.Retryable() {
			return &retryableError{err: werr}
		}
		return werr
	}
	return &retryableError{err: err}
}

// finish feeds the response's ring epoch into the refresh loop, then
// translates the error.
func (t *binaryTransport) finish(epoch uint64, err error) error {
	if epoch > 0 && t.notify != nil {
		t.notify(epoch)
	}
	return translate(err)
}

func (t *binaryTransport) FetchConfig(m server.MemberInfo) (server.ConfigResponse, error) {
	bc, err := t.conn(m)
	if err != nil {
		return server.ConfigResponse{}, err
	}
	// No epoch notify here: a config fetch IS the refresh, and notifying
	// from inside it could chain redundant background refreshes.
	cfg, _, err := bc.Config()
	return cfg, translate(err)
}

// MPut writes ops through member m in one frame, answering into out (one
// result per op). Per-op verdicts stay typed server errors; the call's
// own failure comes back translated.
func (t *binaryTransport) MPut(m server.MemberInfo, ops []server.BatchPutOp, out []server.BatchPutResult) error {
	bc, err := t.conn(m)
	if err != nil {
		return err
	}
	epoch, err := bc.MPut(ops, out)
	return t.finish(epoch, err)
}

// MGet reads keys through member m in one frame, answering into out (one
// result per key), like MPut.
func (t *binaryTransport) MGet(m server.MemberInfo, keys []string, out []server.BatchGetResult) error {
	bc, err := t.conn(m)
	if err != nil {
		return err
	}
	epoch, err := bc.MGet(keys, out)
	return t.finish(epoch, err)
}

func (t *binaryTransport) Stats(m server.MemberInfo) (server.StatsResponse, error) {
	bc, err := t.conn(m)
	if err != nil {
		return server.StatsResponse{}, err
	}
	st, epoch, err := bc.Stats()
	return st, t.finish(epoch, err)
}

func (t *binaryTransport) WARS(m server.MemberInfo) (server.WARSResponse, error) {
	bc, err := t.conn(m)
	if err != nil {
		return server.WARSResponse{}, err
	}
	wr, epoch, err := bc.WARS()
	return wr, t.finish(epoch, err)
}

// Close tears down every node's connections; in-flight calls fail exactly
// once with the teardown error.
func (t *binaryTransport) Close() {
	t.mu.Lock()
	conns := t.conns
	t.conns = nil
	t.closed = true
	t.mu.Unlock()
	for _, bc := range conns {
		bc.Close()
	}
}
