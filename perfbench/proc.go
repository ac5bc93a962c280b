package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is a snapshot of the whole process's counters (client and
// every node share the process) and of the host's CPU time.
type procSample struct {
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration // user+sys of this process
	syscalls   uint64        // syscr+syscw from /proc/self/io
	hostBusy   uint64        // jiffies, all CPUs, excluding idle and iowait
	hostSteal  uint64
	hostTotal  uint64
}

func sampleProc() (procSample, error) {
	var s procSample
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("getrusage: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	io, err := readKeyed("/proc/self/io", ":")
	if err != nil {
		return s, err
	}
	s.syscalls = io["syscr"] + io["syscw"]
	if s.hostBusy, s.hostSteal, s.hostTotal, err = hostCPU(); err != nil {
		return s, err
	}
	return s, nil
}

// hostCPU reads the aggregate "cpu" line of /proc/stat.
func hostCPU() (busy, steal, total uint64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, 0, fmt.Errorf("/proc/stat: empty")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", sc.Text())
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	var v [8]uint64
	for i := range v {
		if v[i], err = strconv.ParseUint(fields[i+1], 10, 64); err != nil {
			return 0, 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v[i]
	}
	idle := v[3] + v[4]
	return total - idle, v[7], total, nil
}

// readKeyed parses "key<sep> value" lines whose value is a leading integer.
func readKeyed(path, sep string) (map[string]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(string(data), "\n") {
		k, rest, ok := strings.Cut(line, sep)
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseUint(f[0], 10, 64); err == nil {
			out[strings.TrimSpace(k)] = n
		}
	}
	return out, nil
}

// rssPeakMiB is the process's peak resident set (VmHWM).
func rssPeakMiB() (float64, error) {
	st, err := readKeyed("/proc/self/status", ":")
	if err != nil {
		return 0, err
	}
	kb, ok := st["VmHWM"]
	if !ok {
		return 0, fmt.Errorf("/proc/self/status: no VmHWM")
	}
	return float64(kb) / 1024, nil
}

// window is the difference between two samples taken around a timed
// window in which ops operations completed.
type window struct {
	allocsPerOp     float64
	allocBytesPerOp float64
	cpuUsPerOp      float64
	syscallsPerOp   float64
	hostBusyOutside float64 // share of all host CPU time busy outside this process
	hostSteal       float64 // share of all host CPU time stolen
}

// userHz is the kernel's USER_HZ, the unit of /proc/stat; it is 100 on
// every Linux architecture Go supports.
const userHz = 100

func diff(a, b procSample, ops int) window {
	n := float64(ops)
	w := window{
		allocsPerOp:     float64(b.mallocs-a.mallocs) / n,
		allocBytesPerOp: float64(b.allocBytes-a.allocBytes) / n,
		cpuUsPerOp:      float64((b.cpu - a.cpu).Microseconds()) / n,
		syscallsPerOp:   float64(b.syscalls-a.syscalls) / n,
	}
	if total := float64(b.hostTotal - a.hostTotal); total > 0 {
		own := (b.cpu - a.cpu).Seconds() * userHz
		w.hostBusyOutside = max(0, float64(b.hostBusy-a.hostBusy)-own) / total
		w.hostSteal = float64(b.hostSteal-a.hostSteal) / total
	}
	return w
}
