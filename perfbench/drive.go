package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/rng"
)

// rec is one op of a timed window. Sessions write recs into buffers
// allocated before the window, so the generator allocates nothing per op.
type rec struct {
	start, end        int64 // ns since the window began
	seq, base         uint64
	clientMs, coordMs float64
	key               int32
	write, failed     bool
	// wrong marks a read that returned a value of another key.
	wrong bool
}

// span is one traced interval. An op's span has parent 0; its coordinator
// span is its child.
type span struct {
	id, parent uint64
	name       uint8
	start, end int64 // ns since the window began
}

const (
	spanGet uint8 = iota
	spanPut
	spanCoordGet
	spanCoordPut
)

var spanNames = [...]string{"client.get", "client.put", "coord.get", "coord.put"}

// run is one timed closed-loop window: `sessions` goroutines share the
// env's binary client, each issuing its next op when the previous returns.
type run struct {
	recs    [][]rec
	spans   [][]span // nil unless traced
	origin  time.Time
	elapsed time.Duration
	proc    window
	// bounds are the ends of the window's one-second slices, in ns since
	// the window began.
	bounds []int64
}

// drive runs a mix with readFrac reads for d. perSession sizes each session's
// record buffer; a session whose buffer fills stops early.
func drive(e *env, ks *keyspace, readFrac float64, seed uint64, sessions int, d time.Duration, perSession int, traced bool) (run, error) {
	out := run{recs: make([][]rec, sessions)}
	for s := range out.recs {
		out.recs[s] = make([]rec, 0, perSession)
	}
	if traced {
		out.spans = make([][]span, sessions)
		for s := range out.spans {
			out.spans[s] = make([]span, 0, 2*perSession)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	before, err := sampleProc()
	if err != nil {
		return out, err
	}
	origin := time.Now()
	out.origin = origin
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			r := rng.NewStream(seed, uint64(s)+1)
			recs := out.recs[s]
			var spans []span
			if traced {
				spans = out.spans[s]
			}
			for !stop.Load() && len(recs) < cap(recs) {
				recs = append(recs, step(e, ks, readFrac, r, origin))
				if traced {
					spans = traceOp(spans, uint64(s)<<40|uint64(len(recs)), &recs[len(recs)-1])
				}
			}
			out.recs[s] = recs
			if traced {
				out.spans[s] = spans
			}
		}(s)
	}
	for t := sliceLen; t <= d; t += sliceLen {
		time.Sleep(time.Until(origin.Add(t)))
		out.bounds = append(out.bounds, int64(time.Since(origin)))
	}
	time.Sleep(time.Until(origin.Add(d)))
	stop.Store(true)
	wg.Wait()
	out.elapsed = time.Since(origin)
	after, err := sampleProc()
	if err != nil {
		return out, err
	}
	out.proc = diff(before, after, out.ops())
	return out, nil
}

// step issues one op and records it.
func step(e *env, ks *keyspace, readFrac float64, r *rng.RNG, origin time.Time) rec {
	k := ks.draw(r)
	key := ks.names[k]
	rc := rec{key: int32(k), write: r.Float64() >= readFrac}
	rc.start = int64(time.Since(origin))
	if rc.write {
		res, err := e.cl.Put(key, ks.values[k])
		rc.end = int64(time.Since(origin))
		if err != nil {
			rc.failed = true
			return rc
		}
		rc.seq, rc.clientMs, rc.coordMs = res.Seq, res.ClientMs, res.CoordMs
		c := &e.committed[k]
		for old := c.Load(); res.Seq > old && !c.CompareAndSwap(old, res.Seq); old = c.Load() {
		}
		return rc
	}
	rc.base = e.committed[k].Load()
	res, err := e.cl.Get(key)
	rc.end = int64(time.Since(origin))
	if err != nil {
		rc.failed = true
		return rc
	}
	rc.seq, rc.clientMs, rc.coordMs = res.Seq, res.ClientMs, res.CoordMs
	// A read that finds nothing returns seq 0, older than the bulk load:
	// the checker counts it as stale, which partial quorums allow.
	rc.wrong = res.Found && !belongs(key, res.Value)
	return rc
}

// traceOp appends an op's span and its coordinator child. The coordinator
// reports only its duration, so the child is centred in the op's span
// (the two client hops are taken as equal).
func traceOp(spans []span, id uint64, rc *rec) []span {
	op, coord := spanGet, spanCoordGet
	if rc.write {
		op, coord = spanPut, spanCoordPut
	}
	spans = append(spans, span{id: id << 1, name: op, start: rc.start, end: rc.end})
	if rc.failed {
		return spans
	}
	d := int64(rc.coordMs * 1e6)
	mid := (rc.start + rc.end) / 2
	return append(spans, span{id: id<<1 | 1, parent: id << 1, name: coord, start: mid - d/2, end: mid + d - d/2})
}

// sliceLen is the length of the slices whose medians give a window's
// throughput and latency, so that a burst of host noise inside one slice
// does not move the window's figure.
const sliceLen = time.Second

// sliceMedians returns the median over the window's full slices of the
// ops completed per second and of the slice's read p50 (ClientMs).
func (r *run) sliceMedians() (opsPerS, readP50 float64) {
	n := len(r.bounds)
	if n == 0 {
		reads, _ := latencies(r.recs, func(rc *rec) float64 { return rc.clientMs })
		return float64(r.ops()) / r.elapsed.Seconds(), median(reads)
	}
	counts := make([]float64, n)
	reads := make([][]float64, n)
	for _, rs := range r.recs {
		for i := range rs {
			rc := &rs[i]
			j := sort.Search(n, func(j int) bool { return r.bounds[j] > rc.end })
			if j == n || rc.failed {
				continue
			}
			counts[j]++
			if !rc.write {
				reads[j] = append(reads[j], rc.clientMs)
			}
		}
	}
	rates, p50s := make([]float64, 0, n), make([]float64, 0, n)
	prev := int64(0)
	for j := 0; j < n; j++ {
		rates = append(rates, counts[j]/(float64(r.bounds[j]-prev)/1e9))
		prev = r.bounds[j]
		if len(reads[j]) > 0 {
			p50s = append(p50s, median(reads[j]))
		}
	}
	return median(rates), median(p50s)
}

func (r *run) ops() int {
	n := 0
	for _, rs := range r.recs {
		n += len(rs)
	}
	return n
}

// full reports whether any session ran out of record buffer.
func (r *run) full() bool {
	for _, rs := range r.recs {
		if len(rs) == cap(rs) {
			return true
		}
	}
	return false
}
