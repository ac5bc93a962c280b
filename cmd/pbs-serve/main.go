// Command pbs-serve boots a live networked PBS cluster on loopback and
// measures it against its own predictions: N internal/server replicas
// (binary client protocol and TCP replication on each node's internal
// port, HTTP admin surface, injectable WARS latency), a
// concurrent load generator driving a configurable workload through the
// cluster, an online staleness monitor streaming measured staleness and
// latency, and a probe campaign whose measured t-visibility is printed
// side by side with the wars Monte Carlo prediction — the live-cluster
// counterpart of the pbs calculator.
//
// -scale stretches the latency model's time axis once; the stretched model
// is both what the prediction simulates and what the replicas inject.
// -batch 1 (the default) drives single-key operations per -read-fraction;
// -batch k > 1 drives multi-get and multi-put batches of k keys each,
// drawn per -zipf. The load generator and probes speak the pipelined
// binary client protocol, bootstrapping their view from a node's /config.
//
// The cluster can additionally run degraded: -fail scripts fault
// injection (crashed/paused replicas, dropped or delayed internal RPCs),
// -handoff and -anti-entropy enable the recovery subsystems that converge
// replicas after faults, -sloppy adds sloppy quorums with hinted spare
// writes, -data-dir makes each node's data and pending hints durable in one
// group-commit WAL per node (-fsync sets its policy), and -tune-sla runs
// the monitor-fed tuner that fits the measured WARS legs online every
// -interval and recommends (or, with -tune-apply, applies) the cheapest
// (R, W) meeting a staleness SLA — Section 6's dynamic configuration, live.
//
// -node (or -join) runs one node per process instead, for multi-process
// and multi-host clusters; -advertise names the host peers dial.
//
// Examples:
//
//	pbs-serve -replicas 3 -n 3 -r 1 -w 2 -model lnkd-disk -scale 16 \
//	          -rate 2000 -duration 10s -epochs 200
//	pbs-serve -duration 8s -fail "2s crash 2; 5s recover 2" \
//	          -handoff -anti-entropy
//	pbs-serve -duration 10s -r 3 -w 3 -tune-sla "t=100,p=0.99" -tune-apply
//	pbs-serve -batch 8 -zipf 0.99 -duration 5s
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pbs/internal/client"
	"pbs/internal/dist"
	"pbs/internal/rng"
	"pbs/internal/server"
	"pbs/internal/sla"
	"pbs/internal/stats"
	"pbs/internal/tabular"
	"pbs/internal/tuner"
	"pbs/internal/wars"
	"pbs/internal/workload"
)

// parseSLA parses a -tune-sla spec of comma-separated terms:
//
//	t=<ms>   staleness window (an optional "ms" suffix is accepted)
//	p=<prob> required consistency probability; values above 1 are read as
//	         percentages, so p=0.999 and p=99.9 mean the same thing
//	k=<int>  optional k-staleness bound (Section 6.1's ⟨k, t⟩-staleness):
//	         reads may be up to k versions stale and still meet the SLA
//
// e.g. "t=100,p=0.99" or "k=2,t=10ms,p=99.9".
func parseSLA(spec string) (sla.Target, error) {
	target := sla.Target{}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return target, fmt.Errorf("bad SLA term %q (want k=<int>,t=<ms>,p=<prob>)", part)
		}
		if k == "k" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return target, fmt.Errorf("bad SLA value %q: k wants a positive integer", v)
			}
			target.K = n
			continue
		}
		x, err := strconv.ParseFloat(strings.TrimSuffix(v, "ms"), 64)
		if err != nil {
			return target, fmt.Errorf("bad SLA value %q: %v", v, err)
		}
		switch k {
		case "t":
			target.TWindow = x
		case "p":
			if x > 1 {
				x /= 100 // "p=99.9" percent form
			}
			target.MinPConsistent = x
		default:
			return target, fmt.Errorf("unknown SLA term %q (want k, t, p)", k)
		}
	}
	if target.MinPConsistent <= 0 || target.MinPConsistent > 1 {
		return target, fmt.Errorf("SLA needs p=<prob> in (0, 1] (or a percentage)")
	}
	if target.TWindow < 0 {
		return target, fmt.Errorf("SLA needs t=<ms> >= 0")
	}
	return target, nil
}

func latencyModel(name string) (dist.LatencyModel, bool) {
	if name == "validation" {
		// The paper's Section 5.2 validation model: exponential W (mean
		// 20ms) and A=R=S (mean 10ms).
		return dist.LatencyModel{
			Name: "validation",
			W:    dist.NewExponential(1.0 / 20),
			A:    dist.NewExponential(1.0 / 10),
			R:    dist.NewExponential(1.0 / 10),
			S:    dist.NewExponential(1.0 / 10),
		}, true
	}
	return dist.ModelByName(name)
}

// checkFlags rejects out-of-range numeric flag values before any model is
// built or node started: each would otherwise panic (in dist.NewScaled,
// the workload samplers or time.NewTicker) or die after the cluster is up.
func checkFlags(scale float64, keys int, readFraction float64, interval time.Duration, batch int) error {
	switch {
	case !(scale > 0) || math.IsInf(scale, 1):
		return fmt.Errorf("-scale must be a positive finite factor, got %g", scale)
	case keys < 1:
		return fmt.Errorf("-keys must be at least 1, got %d", keys)
	case !(readFraction >= 0 && readFraction <= 1):
		return fmt.Errorf("-read-fraction must be in [0, 1], got %g", readFraction)
	case interval <= 0:
		return fmt.Errorf("-interval must be positive, got %v", interval)
	case batch < 1:
		return errors.New("-batch must be at least 1")
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pbs-serve: "+format+"\n", args...)
	os.Exit(1)
}

// runSingleNode runs one node process — the multi-process deployment mode.
// With -join it bootstraps into a running cluster (ID assignment, key-range
// streaming, ring flip) before reporting ready; without it, it seeds a
// fresh single-node cluster other processes can -join. The process serves
// until SIGINT/SIGTERM; with -leave it drains out of the ring (a committed
// leave through the config log) before shutting down.
func runSingleNode(p server.Params, scale float64, listen, internal, join, advertise, failSpec string, leave bool) {
	var schedule []server.FaultEvent
	if failSpec != "" {
		var err error
		if schedule, err = server.ParseSchedule(failSpec); err != nil {
			fatalf("%v", err)
		}
	}
	httpLn, err := net.Listen("tcp", listen)
	if err != nil {
		fatalf("listen %s: %v", listen, err)
	}
	internalLn, err := net.Listen("tcp", internal)
	if err != nil {
		fatalf("listen %s: %v", internal, err)
	}
	mode := "seed"
	if join != "" {
		mode = "join " + join
	}
	fmt.Printf("pbs-serve: single node (%s) N=%d R=%d W=%d model=%s scale=%g sloppy=%v\n",
		mode, p.N, p.R, p.W, p.Model.Name, scale, p.SloppyQuorum)
	if p.DataDir != "" {
		fmt.Printf("  durable storage and hints: %s (fsync=%s)\n", p.DataDir, p.Fsync)
	}
	nd, err := server.StartNode(server.NodeConfig{
		Params:           p,
		HTTPListener:     httpLn,
		InternalListener: internalLn,
		JoinAddr:         join,
		Advertise:        advertise,
	})
	if err != nil {
		fatalf("%v", err)
	}
	defer nd.Close()
	m := nd.Membership()
	fmt.Printf("node %d: http=%s internal=%s ring-epoch=%d members=%d\n",
		nd.ID(), nd.HTTPAddr(), nd.InternalAddr(), m.Epoch(), m.Size())
	if len(schedule) > 0 {
		// "self" events (Node -1) resolve to this process's member ID, known
		// only after the join.
		for i := range schedule {
			if schedule[i].Node == -1 {
				schedule[i].Node = nd.ID()
			}
		}
		fmt.Printf("node %d: fault schedule:\n", nd.ID())
		for _, e := range schedule {
			fmt.Printf("  %v\n", e)
		}
		stopSchedule := nd.Faults().RunSchedule(schedule)
		defer stopSchedule()
	}
	fmt.Printf("ready\n")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if leave {
		fmt.Printf("node %d: leaving the ring\n", nd.ID())
		if err := nd.Leave(); err != nil {
			fmt.Fprintf(os.Stderr, "pbs-serve: node %d: leave: %v\n", nd.ID(), err)
		}
	}
	fmt.Printf("node %d: shutting down\n", nd.ID())
}

func main() {
	replicas := flag.Int("replicas", 3, "cluster size")
	n := flag.Int("n", 3, "replication factor N")
	r := flag.Int("r", 1, "read quorum size R")
	w := flag.Int("w", 1, "write quorum size W")
	modelName := flag.String("model", "lnkd-disk", "latency model: lnkd-ssd, lnkd-disk, ymmr, validation")
	scale := flag.Float64("scale", 1, "latency time-scale factor: stretches the model once, for the prediction and the injected delays alike")
	readRepair := flag.Bool("read-repair", false, "enable read repair")
	rate := flag.Float64("rate", 2000, "load generator target ops/s (0 = closed loop)")
	clients := flag.Int("clients", 16, "concurrent load-generator workers")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	keys := flag.Int("keys", 1024, "keyspace size")
	zipf := flag.Float64("zipf", 0.99, "Zipf popularity exponent (0 = uniform keys)")
	readFraction := flag.Float64("read-fraction", 0.8, "read fraction of the workload")
	epochs := flag.Int("epochs", 200, "t-visibility probe epochs (0 = skip probing)")
	trials := flag.Int("trials", 100000, "Monte Carlo trials for the prediction")
	interval := flag.Duration("interval", 2*time.Second, "live snapshot and tuner round interval")
	seed := flag.Uint64("seed", 1, "random seed")
	failSpec := flag.String("fail", "", `scripted fault schedule, e.g. "2s crash 1; 5s recover 1; 0s drop 2 0.3"`)
	handoff := flag.Bool("handoff", false, "enable hinted handoff (buffer writes for unreachable replicas, replay on recovery)")
	sloppy := flag.Bool("sloppy", false, "enable sloppy quorums (coordinator failover past a down primary, hinted spare-replica writes counting toward W; implies -handoff)")
	dataDir := flag.String("data-dir", "", "directory for durable per-node storage engines (group-commit WAL + SSTables holding data and pending hints, replayed on restart; empty = in-memory stores and hints)")
	fsyncPolicy := flag.String("fsync", "always", "storage WAL fsync policy for data and hints: always (group commit), interval or never")
	memtableBytes := flag.Int64("memtable-bytes", 0, "memtable size in bytes that triggers an SSTable flush (0 = engine default)")
	antiEntropy := flag.Bool("anti-entropy", false, "enable background Merkle anti-entropy between replicas")
	tuneSLA := flag.String("tune-sla", "", `run the dynamic-configuration tuner against this SLA, e.g. "t=100,p=0.99" or "k=2,t=10ms,p=99.9"`)
	tuneApply := flag.Bool("tune-apply", false, "apply the tuner's recommended configuration to the live cluster")
	tuneMaxN := flag.Int("tune-max-n", 0, "let the tuner sweep the replication factor N up to this bound (0 = keep N fixed); with -tune-apply the cluster grows nodes as needed")
	nodeMode := flag.Bool("node", false, "run a single node instead of a whole loopback cluster (implied by -join)")
	listenAddr := flag.String("listen", "127.0.0.1:0", "single-node mode: HTTP admin listen address (/config, /stats, /wars, /healthz)")
	internalAddr := flag.String("internal", "127.0.0.1:0", "single-node mode: internal listen address (binary client protocol and replication transport)")
	joinAddr := flag.String("join", "", "single-node mode: internal address of any member of a running cluster to join")
	advertise := flag.String("advertise", "", "single-node mode: host peers and clients should dial instead of the bound one, for both listeners (each keeps its bound port)")
	leave := flag.Bool("leave", false, "single-node mode: drain and leave the ring (a committed config-log leave) on SIGINT/SIGTERM instead of just shutting down")
	gossipInterval := flag.Duration("gossip-interval", 0, "anti-entropy membership gossip interval (0 = server default)")
	batchSize := flag.Int("batch", 1, "keys per operation: 1 = single-key reads and writes per -read-fraction, more = multi-get/multi-put batches over the keys -zipf picks")
	flag.Parse()

	if err := checkFlags(*scale, *keys, *readFraction, *interval, *batchSize); err != nil {
		fatalf("%v", err)
	}
	model, ok := latencyModel(*modelName)
	if !ok {
		fatalf("unknown model %q (want lnkd-ssd, lnkd-disk, ymmr or validation)", *modelName)
	}
	model = dist.ScaleModel(model, *scale)
	params := server.Params{
		N: *n, R: *r, W: *w,
		ReadRepair: *readRepair,
		Handoff:    *handoff, AntiEntropy: *antiEntropy,
		SloppyQuorum: *sloppy,
		DataDir:      *dataDir, Fsync: *fsyncPolicy, MemtableBytes: *memtableBytes,
		WARSSampling:   true, // /wars is part of the CLI surface; the tuner feeds on it
		Model:          &model,
		Seed:           *seed,
		GossipInterval: *gossipInterval,
	}

	if *nodeMode || *joinAddr != "" {
		runSingleNode(params, *scale, *listenAddr, *internalAddr, *joinAddr, *advertise, *failSpec, *leave)
		return
	}

	var schedule []server.FaultEvent
	if *failSpec != "" {
		var err error
		if schedule, err = server.ParseSchedule(*failSpec); err != nil {
			fatalf("%v", err)
		}
	}
	var slaTarget sla.Target
	if *tuneSLA != "" {
		var err error
		if slaTarget, err = parseSLA(*tuneSLA); err != nil {
			fatalf("-tune-sla: %v", err)
		}
	}

	// Prediction first: the table the live cluster has to live up to.
	pred, err := wars.Simulate(wars.NewIID(*n, model), wars.Config{R: *r, W: *w}, *trials, rng.New(*seed))
	if err != nil {
		fatalf("%v", err)
	}

	cluster, err := server.StartLocal(*replicas, params)
	if err != nil {
		fatalf("%v", err)
	}
	defer cluster.Close()

	fmt.Printf("pbs-serve: live PBS cluster on loopback\n")
	fmt.Printf("  replicas=%d N=%d R=%d W=%d model=%s scale=%g read-repair=%v handoff=%v anti-entropy=%v sloppy=%v\n",
		*replicas, *n, *r, *w, model.Name, *scale, *readRepair, *handoff || *sloppy, *antiEntropy, *sloppy)
	if *dataDir != "" {
		fmt.Printf("  durable storage and hints: %s (fsync=%s)\n", *dataDir, *fsyncPolicy)
	}
	for i, addr := range cluster.HTTPAddrs {
		fmt.Printf("  node %d: %s\n", i, addr)
	}
	if len(schedule) > 0 {
		fmt.Printf("  fault schedule:\n")
		for _, e := range schedule {
			fmt.Printf("    %v\n", e)
		}
		stopSchedule := cluster.Faults().RunSchedule(schedule)
		defer stopSchedule()
	}
	strict := ""
	if *r+*w > *n {
		strict = " (strict quorum: R+W > N)"
	}
	fmt.Printf("  predicted: P(consistent, t=0)=%.4f, t-visibility@99.9%%=%.1fms%s\n\n",
		pred.PConsistent(0), pred.TVisibility(0.999), strict)

	c, err := client.DialBinary(cluster.HTTPAddrs[0])
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()

	var chooser workload.KeyChooser
	if *zipf > 0 {
		chooser = workload.NewZipfKeys(*keys, *zipf, "key-")
	} else {
		chooser = workload.NewUniformKeys(*keys, "key-")
	}
	if *batchSize > 1 {
		fmt.Printf("  workload: batches of %d keys (zipf=%g)\n", *batchSize, *zipf)
	}

	// Load generator + live monitor in the background.
	mon := client.NewMonitor()
	var loadRes client.LoadResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		loadRes, err = client.RunLoad(c, mon, client.LoadOptions{
			Clients: *clients, Rate: *rate, Duration: *duration,
			Keys: chooser, Mix: workload.NewMix(*readFraction), Seed: *seed,
			BatchSize: *batchSize,
		})
		if err != nil {
			fatalf("load generator: %v", err)
		}
	}()

	// Probe campaign concurrently with the load: measured t-visibility
	// under real traffic.
	var meas *client.TVisMeasurement
	if *epochs > 0 {
		tmax := pred.TVisibility(0.95)
		if tmax < 2 {
			tmax = 2
		}
		if tmax > 400 {
			tmax = 400
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			meas, err = client.MeasureTVisibility(c, client.TVisOptions{
				Ts: stats.Linspace(0, tmax, 10), Epochs: *epochs, Concurrency: 8,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "pbs-serve: probe campaign: %v\n", err)
			}
		}()
	}

	// Live snapshots while the workload runs.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Dynamic-configuration tuner: periodically pool the coordinators'
	// measured WARS leg samples, fit them online, and optimize (R, W)
	// against the SLA (Section 6).
	var lastRec *tuner.Recommendation
	var recMu sync.Mutex
	if *tuneSLA != "" {
		tn := &tuner.Tuner{
			Source: func() (tuner.Samples, error) {
				w, a, r, s, err := c.WARSSamples()
				return tuner.Samples{W: w, A: a, R: r, S: s}, err
			},
			Config: tuner.Config{
				N: *n, MaxN: *tuneMaxN, Target: slaTarget,
				Trials: *trials / 2, Seed: *seed,
			},
			OnRound: func(rec *tuner.Recommendation, err error) {
				if err != nil {
					fmt.Printf("[tuner] %v\n", err)
					return
				}
				recMu.Lock()
				lastRec = rec
				recMu.Unlock()
				fmt.Printf("[tuner] recommended N=%d R=%d W=%d (p=%.4f@t=%gms, read p%g=%.1fms, write p%g=%.1fms)\n",
					rec.Choice.N, rec.Choice.R, rec.Choice.W, rec.Choice.PConsistent, slaTarget.TWindow,
					rec.Target.LatencyQuantile*100, rec.Choice.ReadLatency,
					rec.Target.LatencyQuantile*100, rec.Choice.WriteLatency)
			},
		}
		if *tuneApply {
			tn.Apply = func(nn, r, w int) error {
				cr, cw := cluster.Quorums()
				if cluster.Replication() == nn && cr == r && cw == w {
					return nil
				}
				// A recommendation above the current member count is a
				// membership change: grow the ring through the live join
				// protocol, then retune the replication configuration.
				for cluster.Membership().Size() < nn {
					fmt.Printf("[tuner] growing the ring: joining node %d\n", cluster.Membership().NextID())
					if _, err := cluster.AddNode(); err != nil {
						return err
					}
				}
				fmt.Printf("[tuner] applying N=%d R=%d W=%d to the live cluster\n", nn, r, w)
				return cluster.SetConfig(nn, r, w)
			}
		}
		go tn.Run(*interval, done)
	}
	qs := []float64{0.5, 0.95, 0.999}
	start := time.Now()
	ticker := time.NewTicker(*interval)
live:
	for {
		select {
		case <-done:
			break live
		case <-ticker.C:
			s := mon.Snapshot(qs)
			fmt.Printf("[%5.1fs] ops=%d (%.0f/s) stale=%.2f%% mean-k=%.3f read p50/p95=%.1f/%.1fms write p50/p95=%.1f/%.1fms\n",
				time.Since(start).Seconds(), s.Reads+s.Writes,
				float64(s.Reads+s.Writes)/time.Since(start).Seconds(),
				s.PStale*100, s.MeanKBehind,
				s.ReadClientMs[0], s.ReadClientMs[1],
				s.WriteClientMs[0], s.WriteClientMs[1])
		}
	}
	ticker.Stop()

	// Final measured-vs-predicted tables.
	if cr, cw := cluster.Quorums(); cr != *r || cw != *w {
		fmt.Printf("note: quorums were retuned live (R=%d W=%d -> R=%d W=%d); the measured\n"+
			"      columns below span both configurations while the prediction is for\n"+
			"      the startup quorums.\n\n", *r, *w, cr, cw)
	}
	snap := mon.Snapshot(qs)
	fmt.Printf("\nload generator: %d ops in %v (%.0f ops/s, %d errors)\n\n",
		loadRes.Ops, loadRes.Elapsed.Round(time.Millisecond), loadRes.Throughput, loadRes.Errors)

	lt := tabular.New("operation latency: measured (coordinator) vs predicted (WARS)",
		"quantile", "read meas", "read pred", "write meas", "write pred")
	for i, q := range qs {
		lt.AddRow(fmt.Sprintf("p%g", q*100),
			tabular.Ms(snap.ReadCoordMs[i]), tabular.Ms(pred.ReadLatency(q)),
			tabular.Ms(snap.WriteCoordMs[i]), tabular.Ms(pred.WriteLatency(q)))
	}
	fmt.Println(lt.String())

	st := tabular.New("staleness: measured vs predicted",
		"metric", "measured", "predicted")
	st.AddRow("P(stale) under workload", tabular.Pct(snap.PStale), "(depends on read timing)")
	st.AddRow("mean k-staleness (versions behind)", fmt.Sprintf("%.4f", snap.MeanKBehind), "-")
	st.AddRow("max k-staleness", fmt.Sprintf("%d", snap.MaxKBehind), "-")
	agg := cluster.Stats()
	st.AddRow("detector flags (Sec 4.3)", fmt.Sprintf("%d", agg.DetectorFlags), "-")
	st.AddRow("read repairs", fmt.Sprintf("%d", agg.ReadRepairs), "-")
	fmt.Println(st.String())

	if *failSpec != "" || *handoff || *antiEntropy || *sloppy {
		ft := tabular.New("fault tolerance", "metric", "count")
		ft.AddRow("injected rpc faults", fmt.Sprintf("%d", cluster.Faults().Injected()))
		ft.AddRow("failed operations", fmt.Sprintf("%d", agg.FailedOps))
		if *sloppy {
			ft.AddRow("sloppy quorum: failover writes", fmt.Sprintf("%d", agg.FailoverWrites))
			ft.AddRow("sloppy quorum: spare writes", fmt.Sprintf("%d", agg.SpareWrites))
		}
		ft.AddRow("hinted handoff: hints stored", fmt.Sprintf("%d", agg.HintsStored))
		ft.AddRow("hinted handoff: hints replayed", fmt.Sprintf("%d", agg.HintsReplayed))
		ft.AddRow("hinted handoff: hints pending", fmt.Sprintf("%d", agg.HintsPending))
		if *dataDir != "" {
			ft.AddRow("hinted handoff: hints restored from WAL", fmt.Sprintf("%d", agg.HintsRestored))
		}
		ft.AddRow("anti-entropy: rounds", fmt.Sprintf("%d", agg.AERounds))
		ft.AddRow("anti-entropy: versions pulled", fmt.Sprintf("%d", agg.AEPulled))
		ft.AddRow("anti-entropy: versions pushed", fmt.Sprintf("%d", agg.AEPushed))
		fmt.Println(ft.String())
		if log := cluster.Faults().Log(); len(log) > 0 {
			fmt.Println("fault events:")
			for _, line := range log {
				fmt.Printf("  %s\n", line)
			}
			fmt.Println()
		}
	}

	if *tuneSLA != "" {
		recMu.Lock()
		rec := lastRec
		recMu.Unlock()
		if rec != nil {
			fmt.Printf("tuner: final recommendation N=%d R=%d W=%d for SLA %q\n",
				rec.Choice.N, rec.Choice.R, rec.Choice.W, *tuneSLA)
			for _, lf := range rec.Fits {
				fmt.Printf("  fitted %v\n", lf)
			}
			cr, cw := cluster.Quorums()
			fmt.Printf("  live cluster quorums now R=%d W=%d (apply=%v)\n", cr, cw, *tuneApply)
		} else {
			fmt.Printf("tuner: no recommendation produced (run longer or lower -interval)\n")
		}
	}

	if meas != nil {
		tv := tabular.New("t-visibility: measured vs predicted",
			"t (ms)", "measured P", "predicted P", "delta")
		predCurve := pred.Curve(meas.MeanOffsets())
		measCurve := meas.Curve()
		for i := range meas.Ts {
			tv.AddRow(fmt.Sprintf("%.1f", meas.Ts[i]),
				tabular.Prob(measCurve[i]), tabular.Prob(predCurve[i]),
				fmt.Sprintf("%+.4f", measCurve[i]-predCurve[i]))
		}
		fmt.Println(tv.String())
		if rmse, err := stats.RMSE(predCurve, measCurve); err == nil {
			fmt.Printf("t-visibility agreement: RMSE %.2f%% over %d probe points (%d epochs)\n",
				rmse*100, len(meas.Ts), *epochs)
		}
	}
}
