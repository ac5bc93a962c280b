package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"pbs/internal/client"
)

// verdict is what the checker found in one window's records.
type verdict struct {
	attempted, failed int
	reads, stale      int
	wrong             int
	// consistentFrac is the share of successful reads that returned at
	// least the newest version acknowledged before they began, as
	// client.Monitor counts it.
	consistentFrac float64
	// monitorNsPerOp is the cost of recording one op in client.Monitor.
	monitorNsPerOp float64
	problems       []string
}

func (v *verdict) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// check replays the window's records into a client.Monitor and checks
// them: no read may return a value of another key, and under strict
// quorums (R+W>N) no read may be stale (or find nothing) and no op may
// fail.
func check(sh shape, ks *keyspace, recs [][]rec) verdict {
	var v verdict
	mon := client.NewMonitor()
	t0 := time.Now()
	for _, rs := range recs {
		for i := range rs {
			rc := &rs[i]
			v.attempted++
			switch {
			case rc.failed:
				v.failed++
			case rc.write:
				mon.RecordWrite(ks.names[rc.key], rc.seq, rc.clientMs, rc.coordMs)
			default:
				mon.RecordRead(ks.names[rc.key], rc.seq, rc.base, rc.clientMs, rc.coordMs)
				v.reads++
				if rc.seq < rc.base {
					v.stale++
				}
				if rc.wrong {
					v.wrong++
				}
			}
		}
	}
	if v.attempted > 0 {
		v.monitorNsPerOp = float64(time.Since(t0).Nanoseconds()) / float64(v.attempted)
	}
	snap := mon.Snapshot(nil)
	v.consistentFrac = 1 - snap.PStale
	switch {
	case v.attempted == 0:
		v.fail("no op attempted")
	case v.reads == 0:
		v.fail("no read succeeded")
	}
	if int(snap.StaleReads) != v.stale {
		v.fail("monitor counts %d stale reads, checker %d", snap.StaleReads, v.stale)
	}
	if v.wrong > 0 {
		v.fail("%d reads returned a value of another key", v.wrong)
	}
	if sh.r+sh.w > sh.n {
		if v.stale > 0 {
			v.fail("%d stale reads under strict quorums N=%d R=%d W=%d", v.stale, sh.n, sh.r, sh.w)
		}
		if v.failed > 0 {
			v.fail("%d failed ops under strict quorums", v.failed)
		}
	}
	return v
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies splits a window's successful ops into read and write samples
// of f.
func latencies(recs [][]rec, f func(*rec) float64) (reads, writes []float64) {
	for _, rs := range recs {
		for i := range rs {
			rc := &rs[i]
			if rc.failed {
				continue
			}
			if rc.write {
				writes = append(writes, f(rc))
			} else {
				reads = append(reads, f(rc))
			}
		}
	}
	return reads, writes
}
