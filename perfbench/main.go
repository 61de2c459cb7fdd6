// Command perfbench is the repository's end-to-end benchmark. It
// self-hosts osrd — internal/server over an Engine, with a SyncAlways
// write-ahead log, and for follower-read a log-shipping follower — in
// one process, drives one named workload over loopback HTTP from at
// most two connections, checks the answers, and prints its metrics.
//
//	perfbench --workload hot-read --seed 1 --seconds 20 --trace 0
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first. With --trace 0 it reports the end-to-end metrics;
// with --trace 1 it runs the workload again with spans recorded around
// every layer call the benchmark makes and reports per-layer metrics.
// The last line of standard output is the result object; the lines
// before it are the environment stamp and the run's detail (per-phase
// rates, percentiles with the percentile actually used and its sample
// count, generator lateness, and check outcomes).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "", "hot-read, cold-read, write-mix or follower-read")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	workdir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "directory for WAL files and spans")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, d time.Duration, traced bool, workdir string) error {
	sp, ok := specs[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if d <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in, err := genInputs(workload, seed)
	if err != nil {
		return err
	}
	stamp(workload, seed, traced)
	ctx := context.Background()
	var res runResult
	var detail any
	if traced {
		res, detail, err = runTraced(ctx, sp, in, d, dir, filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed)))
	} else {
		res, detail, err = runUntraced(ctx, sp, in, d, dir)
	}
	if err != nil {
		return err
	}
	for name, m := range res.Metrics {
		m.Value = finite(m.Value)
		res.Metrics[name] = m
	}
	printJSON(map[string]any{"detail": detail})
	printJSON(res)
	return nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
