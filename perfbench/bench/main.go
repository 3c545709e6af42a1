// Command bench is the benchmark's load process. It holds the fake
// peers (origins, memcached shards, the Hadoop reducer) and one open-loop
// generator, launches the middlebox host as a separate process, and
// prints every metric of one workload by name and unit, ending with one
// JSON line:
//
//	bench -workload lb-keepalive -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it
// repeats the workload against a traced host and prints the per-layer
// metrics. perfbench/run.sh builds both binaries and runs this.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

func main() {
	wname := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced host")
	hostBin := flag.String("host", ".bench_build/bin/host", "host binary")
	outDir := flag.String("out", ".bench_build/results", "directory for the run record and trace files")
	flag.Parse()
	// Phases collect explicitly between windows (runner.phase); a
	// collection inside a window would stall the generator and the peers.
	debug.SetGCPercent(-1)
	w := lookup(*wname)
	if w == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (have %s)\n", *wname, strings.Join(names, ", "))
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	r := &runner{w: w, seed: *seed, seconds: *seconds, hostBin: *hostBin, outDir: *outDir,
		clients: min(2, runtime.NumCPU())}
	var (
		vals map[string]float64
		cat  []metricDef
		err  error
	)
	if *trace == 0 {
		vals, err = r.endToEnd()
		cat = endToEnd
	} else {
		vals, err = r.layers()
		cat = perLayer
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := r.report(cat, vals, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// report prints every metric of cat, writes the run record, and ends
// standard output with the result line.
func (r *runner) report(cat []metricDef, vals map[string]float64, trace int) error {
	res := result{Correct: r.failed == 0 && r.wrong == "", Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricJSON{}}
	for _, m := range cat {
		applies := m.applies == nil || m.applies(r.w)
		v, ok := vals[m.name]
		if !ok && applies {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
		note := ""
		if !applies {
			note = "  (not applicable: layer idle on this workload)"
		}
		fmt.Printf("%-40s %14.6g %s%s\n", m.name, v, m.unit, note)
	}
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed; first cause: %s\n",
			r.w.name, r.failed, r.attempted, r.failCause())
	}
	rec := map[string]any{
		"workload": r.w.name, "seed": r.seed, "trace": trace, "pass_seconds": r.seconds,
		"commit": commitID(), "go": runtime.Version(), "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "clients": r.clients,
		"transport": "loopback kernel TCP", "result": res, "diagnostics": r.diag,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", r.w.name, r.seed, trace))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	keys := make([]string, 0, len(r.diag))
	for k := range r.diag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "diag %-34s %v\n", k, r.diag[k])
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func (r *runner) failCause() string {
	if r.wrong != "" {
		return r.wrong
	}
	return r.firstFail
}

// commitID names the code under test: the git commit when run from a
// repository, otherwise a digest of the module's Go sources and go.mod.
func commitID() string {
	if id := gitHead(); id != "" {
		return id
	}
	return treeDigest(".")
}
