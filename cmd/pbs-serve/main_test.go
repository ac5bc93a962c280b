package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCheckFlags(t *testing.T) {
	const (
		scale    = 1.0
		keys     = 1024
		readFrac = 0.8
		interval = 2 * time.Second
		batch    = 1
	)
	cases := []struct {
		name         string
		scale        float64
		keys         int
		readFraction float64
		interval     time.Duration
		batch        int
		want         string // substring of the error; empty = accepted
	}{
		{"defaults", scale, keys, readFrac, interval, batch, ""},
		{"batched", scale, keys, readFrac, interval, 8, ""},
		{"read-only", scale, keys, 1, interval, batch, ""},
		{"write-only", scale, keys, 0, interval, batch, ""},
		{"one-key", scale, 1, readFrac, interval, batch, ""},
		{"zero-scale", 0, keys, readFrac, interval, batch, "-scale"},
		{"negative-scale", -2, keys, readFrac, interval, batch, "-scale"},
		{"nan-scale", math.NaN(), keys, readFrac, interval, batch, "-scale"},
		{"inf-scale", math.Inf(1), keys, readFrac, interval, batch, "-scale"},
		{"zero-keys", scale, 0, readFrac, interval, batch, "-keys"},
		{"negative-keys", scale, -1, readFrac, interval, batch, "-keys"},
		{"read-fraction-above-1", scale, keys, 1.5, interval, batch, "-read-fraction"},
		{"read-fraction-below-0", scale, keys, -0.1, interval, batch, "-read-fraction"},
		{"nan-read-fraction", scale, keys, math.NaN(), interval, batch, "-read-fraction"},
		{"zero-interval", scale, keys, readFrac, 0, batch, "-interval"},
		{"negative-interval", scale, keys, readFrac, -time.Second, batch, "-interval"},
		{"zero-batch", scale, keys, readFrac, interval, 0, "-batch"},
		{"negative-batch", scale, keys, readFrac, interval, -3, "-batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkFlags(tc.scale, tc.keys, tc.readFraction, tc.interval, tc.batch)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("accepted, want an error naming %s", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
		})
	}
}
