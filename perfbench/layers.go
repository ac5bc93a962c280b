package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pbs"
	"pbs/internal/kvstore"
	"pbs/internal/rng"
	"pbs/internal/server"
	"pbs/internal/storage"
)

// timeline keeps the traced run's phase spans in memory; op spans stay in
// each window's buffers. Both are written out when the run ends.
type timeline struct {
	origin time.Time
	phases []phaseSpan
}

type phaseSpan struct {
	name       string
	start, end time.Time
}

func (t *timeline) add(name string, start time.Time) {
	t.phases = append(t.phases, phaseSpan{name, start, time.Now()})
}

// measureLayers is the traced run. It sets the workload's cluster up once,
// runs untraced and traced windows on it (their ops/s difference is the
// tracing overhead), then measures the single-node baseline and calls
// kvstore, storage and the WARS predictor directly. The untraced windows,
// the traced window, the single-node baseline and the storage calls each
// get a quarter of cfg.seconds.
func measureLayers(cfg config) (result, error) {
	sp, sh := cfg.sp, cfg.sp.shape()
	quarter := cfg.seconds / 4
	tl := &timeline{origin: time.Now()}
	ks := newKeyspace(sp, cfg.seed)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	t0 := time.Now()
	e, pred, err := setUp(sh, ks, filepath.Join(cfg.dir, "data"), cfg.seed, cfg.sessions, sp.injected)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	at := t0
	for _, p := range e.phases {
		tl.phases = append(tl.phases, phaseSpan{"setup." + p.name, at, at.Add(p.dur)})
		at = at.Add(p.dur)
	}
	fmt.Fprintf(cfg.log, "setup: %s\n", e.phaseLine())
	keys := float64(len(ks.names))
	put("coord.bulk_load_keys_per_s", keys/e.phase("bulk_load").Seconds(), "1/s")
	put("coord.read_back_keys_per_s", keys/e.phase("read_back").Seconds(), "1/s")

	// The untraced quarter is split around the traced window so that
	// drift and the set-up's after-effects (flushes of the bulk load)
	// fall on both sides of the tracing-overhead comparison.
	t0 = time.Now()
	plain1, err := timedWindow(cfg, e, ks, quarter/2, false)
	if err != nil {
		e.close()
		return result{}, err
	}
	tl.add("window.untraced", t0)
	before := e.c.Stats()
	t0 = time.Now()
	traced, err := timedWindow(cfg, e, ks, quarter, true)
	if err != nil {
		e.close()
		return result{}, err
	}
	tl.add("window.traced", t0)
	after := e.c.Stats()
	t0 = time.Now()
	plain2, err := timedWindow(cfg, e, ks, quarter/2, false)
	if err != nil {
		e.close()
		return result{}, err
	}
	tl.add("window.untraced", t0)
	var diskBytes int64
	if sh.durable {
		diskBytes = dirBytes(e.dir)
	}
	e.close()

	v := check(e.sh, ks, traced.recs)
	for _, p := range []run{plain1, plain2} {
		v.problems = append(v.problems, check(e.sh, ks, p.recs).problems...)
	}
	put("client.monitor_ns_per_op", v.monitorNsPerOp, "ns")
	plainRate := float64(plain1.ops()+plain2.ops()) / (plain1.elapsed + plain2.elapsed).Seconds()
	tracedRate := float64(traced.ops()) / traced.elapsed.Seconds()
	put("trace.ops_per_s", tracedRate, "1/s")
	put("trace.overhead_frac", (plainRate-tracedRate)/plainRate, "1")

	cr, cw := latencies(traced.recs, func(rc *rec) float64 { return rc.clientMs })
	kr, kw := latencies(traced.recs, func(rc *rec) float64 { return rc.coordMs })
	hr, hw := latencies(traced.recs, func(rc *rec) float64 { return rc.clientMs - rc.coordMs })
	put("client.write_p50_ms", median(cw), "ms")
	put("client.read_p99_ms", quantile(cr, 0.99), "ms")
	put("client.write_p99_ms", quantile(cw, 0.99), "ms")
	put("client.read_hop_p50_ms", median(hr), "ms")
	put("client.write_hop_p50_ms", median(hw), "ms")
	put("coord.read_p50_ms", median(kr), "ms")
	put("coord.write_p50_ms", median(kw), "ms")
	put("coord.read_p99_ms", quantile(kr, 0.99), "ms")
	put("coord.write_p99_ms", quantile(kw, 0.99), "ms")
	kops := float64(traced.ops()) / 1000
	put("coord.failed_per_kop", float64(after.FailedOps-before.FailedOps)/kops, "1/kop")
	put("coord.read_repairs_per_kop", float64(after.ReadRepairs-before.ReadRepairs)/kops, "1/kop")
	put("coord.detector_flags_per_kop", float64(after.DetectorFlags-before.DetectorFlags)/kops, "1/kop")
	storageStats(put, after, diskBytes, float64(sh.n)*keys*float64(len(ks.names[0])+valueBytes))

	// Single-node baseline: the same client, sessions and mix against one
	// in-memory node, so the transport and a local-only coordinator are
	// all that is left.
	t0 = time.Now()
	single, err := singleBaseline(cfg, ks, quarter)
	if err != nil {
		return result{}, err
	}
	tl.add("single_node", t0)
	sv := check(singleNode, ks, single.recs)
	v.problems = append(v.problems, sv.problems...)
	sr, sw := latencies(single.recs, func(rc *rec) float64 { return rc.clientMs })
	skr, skw := latencies(single.recs, func(rc *rec) float64 { return rc.coordMs })
	put("mux.single_get_p50_us", 1000*median(sr), "us")
	put("mux.single_put_p50_us", 1000*median(sw), "us")
	put("mux.single_allocs_per_op", single.proc.allocsPerOp, "1")
	put("mux.single_syscalls_per_op", single.proc.syscallsPerOp, "1")
	put("coord.fanout_p50_us", 1000*(median(cr)-median(sr)), "us")

	t0 = time.Now()
	getNs, applyNs := kvstoreCosts(ks, cfg.seed)
	tl.add("kvstore", t0)
	put("kvstore.get_ns", getNs, "ns")
	put("kvstore.apply_ns", applyNs, "ns")

	t0 = time.Now()
	sc, err := storageCosts(filepath.Join(cfg.dir, "engine"), ks, cfg.sessions, seconds(quarter))
	if err != nil {
		return result{}, err
	}
	tl.add("storage", t0)
	put("storage.apply_us", sc.applyUs, "us")
	put("storage.get_mem_us", sc.getMemUs, "us")
	put("storage.get_sst_us", sc.getSstUs, "us")

	predict := e.phase("predictor")
	if pred == nil {
		t0 = time.Now()
		if pred, err = newPredictor(cfg.seed); err != nil {
			return result{}, err
		}
		tl.add("predictor", t0)
		predict = time.Since(t0)
	}
	put("wars.predict_ms", float64(predict.Microseconds())/1000, "ms")
	put("wars.trials_per_s", predictorTrials/predict.Seconds(), "1/s")
	p0 := pred.PConsistent(0)
	put("wars.p_consistent_0", p0, "1")
	checkPredictor(&v, p0)
	// Without injection the model predicts no delay, so the gap is the
	// whole measured coordinator p50.
	var predRead, predWrite float64
	if sh.injected {
		predRead, predWrite = pred.ReadLatency(0.5), pred.WriteLatency(0.5)
	}
	put("wars.read_gap_ms", median(kr)-predRead, "ms")
	put("wars.write_gap_ms", median(kw)-predWrite, "ms")

	// p50 split of the client latency across the layers.
	engRead, engWrite := getNs/1e6, applyNs/1e6
	if sh.durable {
		engRead, engWrite = sc.getSstUs/1e3, sc.applyUs/1e3
	}
	readUn := split(cfg.log, "read", median(cr), median(hr), median(skr), median(sr), getNs/1e6, engRead)
	writeUn := split(cfg.log, "write", median(cw), median(hw), median(skw), median(sw), applyNs/1e6, engWrite)
	put("split.read_unaccounted_frac", readUn, "1")
	put("split.write_unaccounted_frac", writeUn, "1")
	fmt.Fprintf(cfg.log, "tracing overhead: %.0f ops/s untraced, %.0f ops/s traced (%+.2f%%)\n",
		plainRate, tracedRate, -100*(plainRate-tracedRate)/plainRate)
	hostLine(cfg.log, traced.proc)

	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl.gz", sp.name, cfg.seed))
	if err := writeTrace(path, tl, map[string]run{"window": traced, "single_node": single}); err != nil {
		return result{}, err
	}
	fmt.Fprintf(cfg.log, "spans written to %s\n", path)
	return finish(cfg.log, v, m), nil
}

// split prints how the client p50 of one op kind divides across the
// layers and returns the share that no layer accounts for:
//
//	hop          p50 of client minus coordinator latency (3 nodes)
//	coordinator  single-node coordinator p50 minus the in-memory engine time
//	fan-out      3-node minus single-node client p50, less the extra time
//	             the workload's engine takes over the in-memory one
//	storage      the workload's engine, called directly
func split(log io.Writer, kind string, client, hop, coord1, client1, memEngine, engine float64) float64 {
	coordinator := coord1 - memEngine
	fanout := client - client1 - (engine - memEngine)
	unaccounted := client - hop - coordinator - fanout - engine
	pct := func(x float64) float64 { return 100 * x / client }
	fmt.Fprintf(log, "%s p50 %.4fms = hop %.4f (%.0f%%) + coordinator %.4f (%.0f%%) + fan-out %.4f (%.0f%%) + storage %.4f (%.1f%%) + unaccounted %.4f (%.1f%%)\n",
		kind, client, hop, pct(hop), coordinator, pct(coordinator), fanout, pct(fanout), engine, pct(engine), unaccounted, pct(unaccounted))
	return unaccounted / client
}

func singleBaseline(cfg config, ks *keyspace, d float64) (run, error) {
	e, _, err := setUp(singleNode, ks, "", cfg.seed, cfg.sessions, false)
	if err != nil {
		return run{}, fmt.Errorf("single-node set-up: %w", err)
	}
	defer e.close()
	return timedWindow(cfg, e, ks, d, true)
}

// newPredictor simulates the paper's experiment that lnkd-disk-partial
// runs live: the injected model at N=3, R=W=1.
func newPredictor(seed uint64) (*pbs.Predictor, error) {
	return pbs.NewPredictor(pbs.IIDScenario(3, injectedModel()),
		pbs.Quorum{R: 1, W: 1}, pbs.WithTrials(predictorTrials), pbs.WithSeed(seed))
}

// paperPConsistent0 is the paper's probability of a consistent read at
// t=0 for LNKD-DISK at N=3, R=W=1 (Section 5). Scaling the model's time
// axis does not change it.
const paperPConsistent0 = 0.44

func checkPredictor(v *verdict, p0 float64) {
	if d := p0 - paperPConsistent0; d < -0.02 || d > 0.02 {
		v.fail("predicted P(consistent, t=0) %.4f is not within 0.02 of the paper's %.2f", p0, paperPConsistent0)
	}
}

func storageStats(put func(string, float64, string), st server.StatsResponse, diskBytes int64, liveBytes float64) {
	var perSync float64
	if st.WALSyncs > 0 {
		perSync = float64(st.WALAppends) / float64(st.WALSyncs)
	}
	put("storage.appends_per_sync", perSync, "1")
	put("storage.flushes", float64(st.StoreFlushes), "count")
	put("storage.compactions", float64(st.StoreCompactions), "count")
	put("storage.sstables", float64(st.StoreSSTables), "count")
	put("storage.disk_bytes_per_live_byte", float64(diskBytes)/liveBytes, "1")
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// kvstoreCosts times Get and Apply on the in-memory engine over the
// workload's keys, in batches of 1024 calls; each figure is the median
// per-call time over the batches.
func kvstoreCosts(ks *keyspace, seed uint64) (getNs, applyNs float64) {
	const batch, batches = 1024, 64
	s := kvstore.NewSynced()
	for i, k := range ks.names {
		s.Apply(kvstore.Version{Key: k, Seq: 1, Value: ks.values[i]}, 0)
	}
	r := rng.NewStream(seed, 1<<20)
	idx := make([]int, batch)
	var gets, applies []float64
	for b := 0; b < batches; b++ {
		for i := range idx {
			idx[i] = ks.draw(r)
		}
		t0 := time.Now()
		for _, i := range idx {
			s.Get(ks.names[i])
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/batch)
		t0 = time.Now()
		for _, i := range idx {
			s.Apply(kvstore.Version{Key: ks.names[i], Seq: uint64(b + 2), Value: ks.values[i]}, 0)
		}
		applies = append(applies, float64(time.Since(t0).Nanoseconds())/batch)
	}
	return median(gets), median(applies)
}

type storageCost struct{ applyUs, getMemUs, getSstUs float64 }

// storageCosts calls fresh storage engines directly with the server's
// default fsync policy. `sessions` concurrent appliers run for at least d
// and until two memtables have been flushed (median per-call Apply time);
// once flushes and compactions are quiet, the first keys applied are read
// from SSTables. A second engine holding only a few keys gives memtable
// reads. The memtable is small so that a bounded number of applies spans
// several SSTables. (The engines are never reopened in place: Close does
// not wait for a background flush, which may still be moving files.)
func storageCosts(dir string, ks *keyspace, sessions int, d time.Duration) (storageCost, error) {
	const memtable, fresh = 32 << 10, 16
	eng, err := storage.Open(storage.Options{Dir: filepath.Join(dir, "sst"), MemtableBytes: memtable})
	if err != nil {
		return storageCost{}, err
	}
	defer eng.Close()
	n := min(len(ks.names), 8192)
	var next atomic.Int64
	var wg sync.WaitGroup
	applies := make([][]float64, sessions)
	deadline := time.Now().Add(d)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for time.Now().Before(deadline) || eng.Metrics().Flushes < 2 {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				t0 := time.Now()
				eng.Apply(kvstore.Version{Key: ks.names[i], Seq: 1, Value: ks.values[i]}, 0)
				applies[s] = append(applies[s], float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}(s)
	}
	wg.Wait()
	var all []float64
	for _, a := range applies {
		all = append(all, a...)
	}
	if m := eng.Metrics(); m.Flushes < 1 {
		return storageCost{}, fmt.Errorf("storage: %d applies flushed no memtable", len(all))
	}
	quiesce(eng)
	sst, err := getCost(eng, ks, 0, fresh)
	if err != nil {
		return storageCost{}, err
	}

	memEng, err := storage.Open(storage.Options{Dir: filepath.Join(dir, "mem"), MemtableBytes: memtable})
	if err != nil {
		return storageCost{}, err
	}
	defer memEng.Close()
	for i := 0; i < fresh; i++ {
		memEng.Apply(kvstore.Version{Key: ks.names[i], Seq: 1, Value: ks.values[i]}, 0)
	}
	mem, err := getCost(memEng, ks, 0, fresh)
	if err != nil {
		return storageCost{}, err
	}
	return storageCost{applyUs: median(all), getMemUs: mem, getSstUs: sst}, nil
}

// quiesce waits until the engine's flush and compaction counts have not
// moved for 100ms.
func quiesce(eng *storage.Engine) {
	last, still := eng.Metrics(), 0
	for still < 5 {
		time.Sleep(20 * time.Millisecond)
		m := eng.Metrics()
		if m.Flushes == last.Flushes && m.Compactions == last.Compactions {
			still++
		} else {
			last, still = m, 0
		}
	}
}

// getCost is the median per-call Get time (µs) over 256 passes of the
// keys [lo, hi), checking every value.
func getCost(eng *storage.Engine, ks *keyspace, lo, hi int) (float64, error) {
	var per []float64
	for pass := 0; pass < 256; pass++ {
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			v, ok := eng.Get(ks.names[i])
			if !ok || v.Value != ks.values[i] {
				return 0, fmt.Errorf("storage: %s read back wrong", ks.names[i])
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/1e3/float64(hi-lo))
	}
	return median(per), nil
}

// writeTrace writes every span as one JSON line (gzip-compressed): phase
// spans first, then each window's op spans, offset to the run's origin.
func writeTrace(path string, tl *timeline, windows map[string]run) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	ns := func(t time.Time) int64 { return t.Sub(tl.origin).Nanoseconds() }
	for i, p := range tl.phases {
		fmt.Fprintf(bw, `{"id":"p%d","parent":"","name":%q,"start_ns":%d,"end_ns":%d}`+"\n", i, p.name, ns(p.start), ns(p.end))
	}
	for name, w := range windows {
		off := ns(w.origin)
		for _, spans := range w.spans {
			for _, s := range spans {
				parent := ""
				if s.parent != 0 {
					parent = fmt.Sprintf("%s/%x", name, s.parent)
				}
				fmt.Fprintf(bw, `{"id":"%s/%x","parent":%q,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
					name, s.id, parent, spanNames[s.name], off+s.start, off+s.end)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
