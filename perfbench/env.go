package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// stamp prints the environment the result was measured in.
func stamp(workload string, seed int64, traced bool) {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	printJSON(map[string]any{"env": map[string]any{
		"workload":              workload,
		"seed":                  seed,
		"trace":                 traced,
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"nproc":                 runtime.NumCPU(),
		"cpu_model":             cpuModel(),
		"go_version":            runtime.Version(),
		"commit":                commit,
		"source_sha256":         sourceDigest("."),
		"sync_policy":           "SyncAlways (every primary; a follower applies the primary's synced log)",
		"generator_threads":     conns,
		"generator_connections": conns,
		"note":                  "at most 2 connections and one writer: WAL group commit never amortizes an fsync across concurrent writers",
	}})
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && filepath.Base(p) != "go.mod" {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, p+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTimes reads the machine's total and stolen CPU time (in clock
// ticks) from /proc/stat; ok is false where it is unavailable.
func cpuTimes() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter reports the share of CPU time the hypervisor took from
// this machine over an interval: a noisy neighbour shows up here.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s, _ := cpuTimes()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s, ok := cpuTimes()
	if !ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}
