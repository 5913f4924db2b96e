// Command perfbench is the repository benchmark: it runs one named
// workload against the monitor as users run it, checks the outputs,
// and prints the end-to-end metrics (untraced) or the per-layer
// decomposition (traced). See README.md.
//
//	perfbench --workload batch-mix --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

var workloads = []string{"batch-mix", "leaf-dvr", "tree-fanin"}

func main() {
	var (
		workload = flag.String("workload", "", "workload: batch-mix, leaf-dvr or tree-fanin")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per pass")
		traced   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin      = flag.String("bin", filepath.Join(".bench_build", "bin"), "directory holding the rfdumpd and rfdumpc builds")
		work     = flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for stores and traces")
		role     = flag.String("role", "", "internal: run as the batch-mix process under test")
		airFile  = flag.String("air", "", "internal: trace file the batch role loads")
	)
	flag.Parse()
	if *role == "batch" {
		os.Exit(batchChild(*airFile, *seconds))
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", workloads)
		os.Exit(2)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), "run-"+strconv.Itoa(os.Getpid())+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rc := &runCtx{workload: *workload, seed: *seed, seconds: *seconds, bin: *bin, self: self, dir: dir}
	var out *outcome
	if *traced == 1 {
		out, err = runTraced(rc)
	} else {
		out, err = runUntraced(rc)
	}
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	attempted, _ := out.tally.Totals()
	out.check("run.attempted", attempted > 0, "no operation attempted")
	report, _ := json.Marshal(out.report(rc))
	fmt.Println(string(report))
	final, _ := json.Marshal(out.contract(*traced == 1))
	fmt.Println(string(final))
	if !out.correct() {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", out.failedChecks())
		os.Exit(1)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	return dir
}
