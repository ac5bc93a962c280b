package smoke

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// moduleRoot walks upward from the working directory to the directory
// containing go.mod, so `go run pbs/cmd/...` resolves package paths.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
}

// smokeCase runs one binary with small inputs and checks its output.
type smokeCase struct {
	name string
	pkg  string
	args []string
	want []string
}

func smokeCases(tmp string) []smokeCase {
	return []smokeCase{
		// cmd/pbs: every subcommand.
		{name: "pbs-kstaleness", pkg: "pbs/cmd/pbs",
			args: []string{"kstaleness", "-n", "3", "-r", "1", "-w", "1", "-k", "3"},
			want: []string{"configuration", "P(within 3 vers.)"}},
		{name: "pbs-monotonic", pkg: "pbs/cmd/pbs",
			args: []string{"monotonic", "-n", "3", "-r", "1", "-w", "1", "-gw", "10", "-cr", "5"},
			want: []string{"monotonic"}},
		{name: "pbs-load", pkg: "pbs/cmd/pbs",
			args: []string{"load", "-p", "0.001", "-k", "3", "-nodes", "10"},
			want: []string{"load"}},
		{name: "pbs-tvisibility", pkg: "pbs/cmd/pbs",
			args: []string{"tvisibility", "-model", "lnkd-disk", "-n", "3", "-r", "1", "-w", "2", "-p", "0.999", "-t", "10", "-trials", "5000"},
			want: []string{"scenario", "lnkd-disk"}},
		{name: "pbs-report", pkg: "pbs/cmd/pbs",
			args: []string{"report", "-n", "3", "-r", "1", "-w", "1", "-trials", "5000"},
			want: []string{"PBS profile", "k-staleness"}},

		// cmd/pbs-fit: builtin table and the fitted-mixture report.
		{name: "pbs-fit", pkg: "pbs/cmd/pbs-fit",
			args: []string{"-table", "t2reads"},
			want: []string{"mixture fit", "observed vs fitted quantiles"}},

		// cmd/pbs-experiments: the registry and one fast experiment.
		{name: "pbs-experiments-list", pkg: "pbs/cmd/pbs-experiments",
			args: []string{"-list"},
			want: []string{"sec3.1-kstaleness", "sec5.2-validation"}},
		{name: "pbs-experiments-kstaleness", pkg: "pbs/cmd/pbs-experiments",
			args: []string{"-run", "sec3.1-kstaleness", "-fast"},
			want: []string{"P(read within k versions)", "completed in"}},

		// cmd/pbs-store: short discrete-event workload.
		{name: "pbs-store", pkg: "pbs/cmd/pbs-store",
			args: []string{"-duration", "3000", "-keys", "16"},
			want: []string{"cluster: 3 nodes", "stale fraction"}},

		// cmd/pbs-serve: short live-cluster run with probes.
		{name: "pbs-serve", pkg: "pbs/cmd/pbs-serve",
			args: []string{"-duration", "2s", "-rate", "300", "-clients", "4", "-epochs", "30",
				"-trials", "10000", "-model", "lnkd-disk", "-scale", "8", "-r", "1", "-w", "2"},
			want: []string{"live PBS cluster on loopback", "operation latency: measured",
				"t-visibility: measured vs predicted", "t-visibility agreement"}},

		// cmd/pbs-serve: scripted crash + recovery with the repair
		// subsystems on.
		{name: "pbs-serve-faults", pkg: "pbs/cmd/pbs-serve",
			args: []string{"-duration", "3s", "-rate", "300", "-clients", "4", "-epochs", "0",
				"-trials", "10000", "-model", "validation", "-r", "1", "-w", "2",
				"-fail", "500ms crash 2; 1500ms recover 2", "-handoff", "-anti-entropy"},
			want: []string{"fault schedule", "hinted handoff: hints stored",
				"anti-entropy: rounds", "fault events", "crash node 2", "recover node 2"}},

		// cmd/pbs-serve: sloppy quorums with durable hints — a scripted
		// primary crash while writes keep flowing through failover
		// coordinators and hinted spares, whose hints ride each node's
		// storage-engine WAL.
		{name: "pbs-serve-sloppy", pkg: "pbs/cmd/pbs-serve",
			args: []string{"-duration", "3s", "-rate", "300", "-clients", "4", "-epochs", "0",
				"-trials", "10000", "-model", "validation", "-replicas", "4", "-n", "3",
				"-r", "1", "-w", "2", "-fail", "500ms crash 0; 2s recover 0",
				"-sloppy", "-data-dir", filepath.Join(tmp, "pbs-serve-sloppy"), "-fsync", "interval"},
			want: []string{"sloppy=true", "durable storage and hints:",
				"sloppy quorum: failover writes", "sloppy quorum: spare writes",
				"hints restored from WAL", "fault events"}},

		// cmd/pbs-serve: the batched workload — multi-get and multi-put
		// frames of 8 Zipf-picked keys each.
		{name: "pbs-serve-batch", pkg: "pbs/cmd/pbs-serve",
			args: []string{"-duration", "2s", "-rate", "800", "-clients", "4", "-epochs", "0",
				"-trials", "10000", "-model", "validation", "-r", "1", "-w", "2",
				"-batch", "8", "-zipf", "0.99"},
			want: []string{"workload: batches of 8 keys (zipf=0.99)", "load generator:"}},

		// cmd/pbs-serve: the dynamic-configuration tuner retunes a
		// mis-deployed strict quorum under a loose ⟨k, t⟩ SLA (the spec
		// exercises the k=, ms-suffix and percent forms).
		{name: "pbs-serve-tuner", pkg: "pbs/cmd/pbs-serve",
			args: []string{"-duration", "6s", "-rate", "0", "-clients", "8", "-epochs", "0",
				"-trials", "20000", "-model", "validation", "-r", "3", "-w", "3",
				"-read-fraction", "0.5", "-tune-sla", "k=2,t=100ms,p=90",
				"-interval", "1500ms", "-tune-apply"},
			want: []string{"[tuner] recommended N=3", "applying N=3 R=", "tuner: final recommendation",
				"live cluster quorums now"}},

		// examples/: every program, as shipped.
		{name: "example-quickstart", pkg: "pbs/examples/quickstart",
			want: []string{"k-staleness", "t-visibility on LNKD-DISK"}},
		{name: "example-monotonic", pkg: "pbs/examples/monotonic",
			want: []string{"monotonic-reads violation probability", "live store sessions"}},
		{name: "example-sla", pkg: "pbs/examples/sla",
			want: []string{"evaluated configurations", "chosen: N="}},
		{name: "example-stalenessmonitor", pkg: "pbs/examples/stalenessmonitor",
			want: []string{"asynchronous staleness detection", "detector flags"}},
		{name: "example-wanreplication", pkg: "pbs/examples/wanreplication",
			want: []string{"geo-replication", "reading the table"}},
	}
}

func TestBinariesSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	root := moduleRoot(t)
	for _, tc := range smokeCases(t.TempDir()) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", append([]string{"run", tc.pkg}, tc.args...)...)
			cmd.Dir = root
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go run %s %v: %v\n%s", tc.pkg, tc.args, err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("output of %s missing %q\n%s", tc.name, want, out)
				}
			}
		})
	}
}
