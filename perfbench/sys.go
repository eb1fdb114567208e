package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps everything it writes: scratch cache
// stores, traces and ranking digests. It is relative to the working
// directory, which is the root of the checkout.
const buildDir = ".bench_build"

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stealSeconds returns the CPU time the host took from this machine's
// processors so far (the steal column of /proc/stat), or 0 where the kernel
// does not report it. Steal during a run explains timings a busy host
// slowed.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// peakHeapMB returns the most heap memory the process has held from the OS,
// in MiB (runtime.MemStats.HeapSys, which the runtime documents as an
// estimate of the largest size the heap has had). Unlike the peak RSS it
// does not depend on when the runtime returned freed pages to the OS.
func peakHeapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapSys) / (1 << 20)
}

// heapMB returns the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timedUnit runs fn and returns its wall and CPU seconds.
func timedUnit(fn func() error) (wallS, cpuS float64, err error) {
	c0, t0 := cpuSeconds(), time.Now()
	err = fn()
	return time.Since(t0).Seconds(), cpuSeconds() - c0, err
}

// scratchDir creates a fresh directory under the build directory for one
// unit of work. The caller removes it.
func scratchDir(name string) (string, error) {
	dir := filepath.Join(buildDir, "scratch", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// digest fingerprints s in 16 hex digits.
func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// checkDigest compares a workload's ranking digest with the one an earlier
// run of the same binary, workload and seed recorded, recording it when no
// earlier run did. It reports false only on a mismatch.
func checkDigest(workload string, seed int64, d string) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return false, err
	}
	dir := filepath.Join(buildDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.txt", workload, seed, digest(string(bin))))
	prev, err := os.ReadFile(path)
	if err == nil {
		return strings.TrimSpace(string(prev)) == d, nil
	}
	if !os.IsNotExist(err) {
		return false, err
	}
	tmp := path + ".tmp-" + strconv.Itoa(os.Getpid())
	if err := os.WriteFile(tmp, []byte(d+"\n"), 0o644); err != nil {
		return false, err
	}
	return true, os.Rename(tmp, path)
}

// checkRankingDigest checks one unit's ranking digest d against the run's
// first unit's, kept in *first, and, for the first unit, against what an
// earlier run of the same binary and seed recorded.
func (b *bench) checkRankingDigest(first *string, d string) error {
	if *first == "" {
		*first = d
		same, err := checkDigest(b.workload, b.seed, d)
		if !b.op(err, "recording ranking digest") {
			return err
		}
		b.check(same, "ranking digest %s differs from an earlier run with seed %d", d, b.seed)
	}
	b.check(d == *first, "ranking digest changed between units of one run")
	return nil
}

// finite reports whether every value is a finite number.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
