// Command perfbench is the serving benchmark: it boots an in-process
// cluster (server.StartLocal), drives one workload through the binary
// client in a closed loop, checks the outputs and prints the end-to-end
// metrics, or with -trace 1 the per-layer metrics. Every layer is timed
// from outside, around calls into its public functions.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload yammer-mem --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"pbs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	sp      spec
	seed    uint64
	seconds float64
	trace   bool
	// dir holds the run's data directories; traceDir the traced run's
	// span files.
	dir, traceDir string
	// sessions is the number of closed-loop client goroutines.
	sessions int
	// log receives the human-readable report lines.
	log io.Writer
}

func main() {
	name := flag.String("workload", "", "workload: yammer-mem, linkedin-durable or lnkd-disk-partial")
	seed := flag.Uint64("seed", 1, "seed of the generated keys, values and op streams")
	seconds := flag.Float64("seconds", 10, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for data directories and trace files")
	flag.Parse()
	sp, err := findSpec(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		sp: sp, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: *dir, sessions: runtime.NumCPU(), log: os.Stdout,
	}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func measure(cfg config) (result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	cfg.traceDir = filepath.Join(cfg.dir, "traces")
	cfg.dir = scratch
	fmt.Fprintf(cfg.log, "workload %s (%s)\nseed %d seconds %g trace %v sessions %d\n",
		cfg.sp.name, cfg.sp.why, cfg.seed, cfg.seconds, cfg.trace, cfg.sessions)
	if cfg.trace {
		return measureLayers(cfg)
	}
	return measureEndToEnd(cfg)
}

// measureEndToEnd sets the cluster up sp.setups times (setup_s is the
// median), then runs one timed window on the last cluster.
func measureEndToEnd(cfg config) (result, error) {
	sp := cfg.sp
	ks := newKeyspace(sp, cfg.seed)
	var setups []float64
	var e *env
	var p0 float64
	for i := 0; i < sp.setups; i++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		var err error
		var pred *pbs.Predictor
		e, pred, err = setUp(sp.shape(), ks, filepath.Join(cfg.dir, fmt.Sprintf("data-%d", i)), cfg.seed, cfg.sessions, sp.injected)
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		if pred != nil {
			p0 = pred.PConsistent(0)
		}
		setups = append(setups, e.setupSeconds())
		fmt.Fprintf(cfg.log, "setup %d: %s\n", i, e.phaseLine())
	}
	defer e.close()
	w, err := timedWindow(cfg, e, ks, cfg.seconds, false)
	if err != nil {
		return result{}, err
	}
	v := check(e.sh, ks, w.recs)
	if sp.injected {
		checkPredictor(&v, p0)
	}
	rss, err := rssPeakMiB()
	if err != nil {
		return result{}, err
	}
	reads, writes := latencies(w.recs, func(rc *rec) float64 { return rc.clientMs })
	opsPerS, readP50 := w.sliceMedians()
	m := map[string]metric{
		"setup_s":              {median(setups), "s"},
		"ops_per_s":            {opsPerS, "1/s"},
		"read_p50_ms":          {readP50, "ms"},
		"cpu_us_per_op":        {w.proc.cpuUsPerOp, "us"},
		"allocs_per_op":        {w.proc.allocsPerOp, "1"},
		"alloc_bytes_per_op":   {w.proc.allocBytesPerOp, "B"},
		"syscalls_per_op":      {w.proc.syscallsPerOp, "1"},
		"rss_peak_mb":          {rss, "MiB"},
		"consistent_read_frac": {v.consistentFrac, "1"},
		"ok_frac":              {1 - float64(v.failed)/float64(max(v.attempted, 1)), "1"},
	}
	fmt.Fprintf(cfg.log, "window: %d ops (%d reads, %d writes) in %.2fs, %.1f ops/s overall, read p50 %.4fms, write p50 %.4fms; read p99 %.3fms (n=%d), write p99 %.3fms (n=%d)\n",
		w.ops(), len(reads), len(writes), w.elapsed.Seconds(), float64(w.ops())/w.elapsed.Seconds(), median(reads), median(writes), quantile(reads, 0.99), len(reads), quantile(writes, 0.99), len(writes))
	hostLine(cfg.log, w.proc)
	return finish(cfg.log, v, m), nil
}

// timedWindow warms the cluster up, sizes the record buffers from the
// warm-up rate, collects garbage and returns the freed memory to the OS
// (so that every window starts from the same resident set and untouched
// buffer pages stay out of it), and runs one timed window of d seconds.
func timedWindow(cfg config, e *env, ks *keyspace, d float64, traced bool) (run, error) {
	warm := min(2, max(d/5, 0.2))
	wu, err := drive(e, ks, cfg.sp.readFrac, cfg.seed^0x5eed, cfg.sessions, seconds(warm), 1<<17, false)
	if err != nil {
		return run{}, err
	}
	if v := check(e.sh, ks, wu.recs); len(v.problems) > 0 {
		return run{}, fmt.Errorf("warm-up: %v", v.problems)
	}
	rate := float64(wu.ops()) / wu.elapsed.Seconds() / float64(cfg.sessions)
	perSession := int(2*rate*d) + 1024
	wu = run{}
	debug.FreeOSMemory()
	w, err := drive(e, ks, cfg.sp.readFrac, cfg.seed, cfg.sessions, seconds(d), perSession, traced)
	if err != nil {
		return run{}, err
	}
	if w.full() {
		return run{}, fmt.Errorf("a session filled its %d-op record buffer; the window ran short", perSession)
	}
	return w, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func (e *env) phaseLine() string {
	s := fmt.Sprintf("%.3fs =", e.setupSeconds())
	for _, p := range e.phases {
		s += fmt.Sprintf(" %s %.3fs", p.name, p.dur.Seconds())
	}
	return s
}

// hostLine prints the host record of a window. It explains outliers; it
// is never used to drop or repeat a run.
func hostLine(w io.Writer, p window) {
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, %s, busy outside this process %.1f%%, steal %.1f%%\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), 100*p.hostBusyOutside, 100*p.hostSteal)
}

func finish(log io.Writer, v verdict, m map[string]metric) result {
	for _, p := range v.problems {
		fmt.Fprintln(log, "CHECK FAILED:", p)
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "  %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return result{Correct: len(v.problems) == 0, Attempted: v.attempted, Failed: v.failed, Metrics: m}
}
