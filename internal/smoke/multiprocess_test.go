package smoke

// Multi-process deployment smoke: three separate pbs-serve OS processes on
// localhost — a seed plus two joiners, the second joining while writes are
// in flight — must form one ring, serve cross-process reads and writes,
// and lose no acknowledged write across the scripted join.

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/server"
)

var nodeLineRE = regexp.MustCompile(`node (\d+): http=(\S+) internal=(\S+) ring-epoch=(\d+) members=(\d+)`)

// serveProc is one pbs-serve single-node process.
type serveProc struct {
	cmd      *exec.Cmd
	id       string
	httpAddr string
	internal string
}

// startServeNode launches one pbs-serve -node process and waits for its
// "ready" line, returning the parsed addresses.
func startServeNode(t *testing.T, ctx context.Context, bin string, args ...string) *serveProc {
	t.Helper()
	cmd := exec.CommandContext(ctx, bin, append([]string{"-node"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	deadline := time.After(60 * time.Second)
	lineCh := make(chan string)
	go func() {
		defer close(lineCh)
		for sc.Scan() {
			lineCh <- sc.Text()
		}
	}()
	var lines []string
	for {
		select {
		case <-deadline:
			t.Fatalf("pbs-serve %v never reported ready:\n%s", args, strings.Join(lines, "\n"))
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("pbs-serve %v exited before ready:\n%s", args, strings.Join(lines, "\n"))
			}
			lines = append(lines, line)
			if m := nodeLineRE.FindStringSubmatch(line); m != nil {
				p.id, p.httpAddr, p.internal = m[1], m[2], m[3]
			}
			if line == "ready" {
				if p.httpAddr == "" {
					t.Fatalf("pbs-serve %v ready without a node line:\n%s", args, strings.Join(lines, "\n"))
				}
				// Keep draining so the child never blocks on a full pipe.
				go func() {
					for range lineCh {
					}
				}()
				return p
			}
		}
	}
}

// kvResponse is the subset of the server's put/get answers the smoke
// needs.
type kvResponse struct {
	Seq   uint64
	Found bool
	Value string
}

// procPut and procGet drive one process directly over the binary client
// protocol at its internal address — the smoke pins which process serves.
func procPut(p *serveProc, key, value string) (kvResponse, error) {
	bc := server.NewBinClient(p.internal)
	defer bc.Close()
	pr, _, err := bc.Put(key, value)
	return kvResponse{Seq: pr.Seq}, err
}

func procGet(p *serveProc, key string) (kvResponse, error) {
	bc := server.NewBinClient(p.internal)
	defer bc.Close()
	gr, _, err := bc.Get(key)
	return kvResponse{Seq: gr.Seq, Found: gr.Found, Value: gr.Value}, err
}

// TestMultiProcessClusterSmoke is the CI deployment smoke: seed + two
// joiner processes, a write load spanning the second join, reads through a
// different process than the writes went to, zero lost acknowledged
// writes.
func TestMultiProcessClusterSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "pbs-serve")
	build := exec.Command("go", "build", "-o", bin, "pbs/cmd/pbs-serve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build pbs-serve: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	common := []string{"-n", "3", "-r", "2", "-w", "2"}
	seed := startServeNode(t, ctx, bin, common...)
	j1 := startServeNode(t, ctx, bin, append([]string{"-join", seed.internal}, common...)...)

	// Static smoke first: write through the seed, read through joiner 1.
	if _, err := procPut(seed, "hello", "world"); err != nil {
		t.Fatal(err)
	}
	if kv, err := procGet(j1, "hello"); err != nil || kv.Value != "world" {
		t.Fatalf("cross-process read: %v %+v", err, kv)
	}

	// Scripted join during load: writers hammer seed+j1 while the third
	// process joins.
	const writers = 4
	var (
		mu       sync.Mutex
		acked    = make(map[string]uint64) // key -> highest acked seq
		failures atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	procs := []*serveProc{seed, j1}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("mp-%d-%d", w, i%24)
				kv, err := procPut(procs[w%len(procs)], key, fmt.Sprintf("v-%d-%d", w, i))
				if err != nil {
					failures.Add(1)
				} else {
					mu.Lock()
					if kv.Seq > acked[key] {
						acked[key] = kv.Seq
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	time.Sleep(250 * time.Millisecond)
	j2 := startServeNode(t, ctx, bin, append([]string{"-join", seed.internal}, common...)...)
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Errorf("%d client-visible write failures across the scripted join", f)
	}

	// Zero lost acknowledged writes: every acked (key, seq) is readable at
	// or above its acknowledged version through the fresh joiner. R=2/W=2
	// on 3 members is a strict quorum; retry briefly only for the join's
	// delta-pass window.
	mu.Lock()
	snapshot := make(map[string]uint64, len(acked))
	for k, s := range acked {
		snapshot[k] = s
	}
	mu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for {
		lost := 0
		for key, seq := range snapshot {
			kv, err := procGet(j2, key)
			if err != nil || !kv.Found || kv.Seq < seq {
				lost++
			}
		}
		if lost == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d acknowledged writes unreadable through the joiner", lost, len(snapshot))
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The joiner reports the full ring.
	var cv configView
	if err := fetchJSON(j2.httpAddr, "/config", &cv); err != nil || len(cv.Members) != 3 {
		t.Fatalf("joiner config after scripted join: %d members (%v)", len(cv.Members), err)
	}
}
