package server

import (
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
)

func TestAdvertisedAddress(t *testing.T) {
	cases := []struct{ bound, override, want string }{
		{"127.0.0.1:8080", "", "127.0.0.1:8080"},        // no override: bound wins
		{"127.0.0.1:8080", "10.0.0.5", "10.0.0.5:8080"}, // the host keeps the bound port
		{"0.0.0.0:7000", "db1.example.com", "db1.example.com:7000"},
		{"127.0.0.1:8080", "::1", "[::1]:8080"},
	}
	for _, c := range cases {
		if got := advertised(c.bound, c.override); got != c.want {
			t.Errorf("advertised(%q, %q) = %q, want %q", c.bound, c.override, got, c.want)
		}
	}
}

// TestAdvertiseFlagReachesRing boots a seed node advertising "localhost"
// instead of its bound 127.0.0.1 address (after refusing a host:port
// value) and checks the advertised form is
// what enters the ring: /config reports it, a joiner learns it, and the
// cluster still serves (localhost resolves, so peers can dial it).
func TestAdvertiseFlagReachesRing(t *testing.T) {
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	internalLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One advertised value serves both listeners, so a port in it could be
	// right for one of them at most.
	if _, err := StartNode(NodeConfig{
		Params:           Params{N: 1, R: 1, W: 1},
		HTTPListener:     httpLn,
		InternalListener: internalLn,
		Advertise:        "localhost:9",
	}); err == nil {
		t.Fatal("advertise with a port accepted")
	}
	seed, err := StartNode(NodeConfig{
		Params:           Params{N: 1, R: 1, W: 1, Seed: 51},
		HTTPListener:     httpLn,
		InternalListener: internalLn,
		Advertise:        "localhost",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	if !strings.Contains(seed.HTTPAddr(), "localhost") {
		t.Fatalf("seed advertises %q, want localhost form", seed.HTTPAddr())
	}
	if host, _, err := net.SplitHostPort(seed.InternalAddr()); err != nil || host != "localhost" {
		t.Fatalf("seed internal address %q, want localhost:<bound port>", seed.InternalAddr())
	}

	// The advertised address is dialable and is what /config reports.
	resp, err := http.Get(seed.HTTPAddr() + "/config")
	if err != nil {
		t.Fatal(err)
	}
	var cfg ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cfg.Members) != 1 || !strings.Contains(cfg.Members[0].Addr, "localhost") ||
		!strings.HasPrefix(cfg.Members[0].Internal, "localhost:") {
		t.Fatalf("/config members %+v, want advertised localhost addresses", cfg.Members)
	}

	// A joiner dials the advertised internal address and the ring works
	// end to end through it.
	jHTTP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	jInternal, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joiner, err := StartNode(NodeConfig{
		Params:           Params{N: 1, R: 1, W: 1, Seed: 52},
		HTTPListener:     jHTTP,
		InternalListener: jInternal,
		JoinAddr:         seed.InternalAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()

	if joiner.Membership().Size() != 2 {
		t.Fatalf("joiner sees %d members, want 2", joiner.Membership().Size())
	}
	binPut(t, seed, "adv-key", "v1")
	if gr := binGet(t, joiner, "adv-key"); !gr.Found || gr.Value != "v1" {
		t.Fatalf("read through joiner %+v", gr)
	}
}
