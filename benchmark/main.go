// Command benchmark is the repository's full-stack benchmark: it boots
// the whole snvs deployment in one process over loopback TCP and measures
// commit → switch-applied (and commit → subscriber-delivered) on four
// workloads, end to end and layer by layer. See README.md.
//
//	go run -C benchmark .                      all workloads, traced pass and probes included
//	go run -C benchmark . --workload W --seed N --seconds S --trace 0|1
//	go run -C benchmark . compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric the benchmark reports.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // share of the baseline it may worsen by; end-to-end only
}

// endToEnd lists the metrics a user of the system sees. BENCHMARK.json
// carries the same names and bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.15},
	{"alloc_bytes_per_op", "B", "lower", 0.15},
	{"heap_live_mb", "MiB", "lower", 0.10},
	{"fwd_pkts_per_s", "pkt/s", "higher", 0.25},
}

// perLayer lists the single-layer metrics of the traced run, by module.
var perLayer = []metricDef{
	{Name: "jsonrpc.call_us", Unit: "us", Better: "lower"},
	{Name: "jsonrpc.call_allocs", Unit: "count", Better: "lower"},
	{Name: "jsonrpc.call_bytes", Unit: "B", Better: "lower"},
	{Name: "ovsdb.transact_us", Unit: "us", Better: "lower"},
	{Name: "ovsdb.deliver_us", Unit: "us", Better: "lower"},
	{Name: "ovsdb.commit_us", Unit: "us", Better: "lower"},
	{Name: "ovsdb.commit_allocs", Unit: "count", Better: "lower"},
	{Name: "ovsdb.wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_allocs", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "core.react_us", Unit: "us", Better: "lower"},
	{Name: "core.ops_per_write", Unit: "count", Better: "higher"},
	{Name: "core.updates_per_write", Unit: "count", Better: "higher"},
	{Name: "engine.apply_us", Unit: "us", Better: "lower"},
	{Name: "engine.apply_allocs", Unit: "count", Better: "lower"},
	{Name: "engine.out_per_in", Unit: "ratio", Better: "lower"},
	{Name: "p4rt.write_us", Unit: "us", Better: "lower"},
	{Name: "p4rt.wire_us", Unit: "us", Better: "lower"},
	{Name: "p4rt.write_allocs", Unit: "count", Better: "lower"},
	{Name: "p4rt.wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "p4rt.digest_us", Unit: "us", Better: "lower"},
	{Name: "switchsim.apply_us", Unit: "us", Better: "lower"},
	{Name: "switchsim.apply_allocs", Unit: "count", Better: "lower"},
	{Name: "p4.process_ns", Unit: "ns", Better: "lower"},
	{Name: "p4.process_allocs", Unit: "count", Better: "lower"},
	{Name: "subscribe.publish_us", Unit: "us", Better: "lower"},
	{Name: "subscribe.deliver_us", Unit: "us", Better: "lower"},
	{Name: "subscribe.updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "subscribe.evictions", Unit: "count", Better: "lower"},
	{Name: "subscribe.wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "driver.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.op_p99_us", Unit: "us", Better: "lower"},
	{Name: "driver.op_tail_pct", Unit: "%", Better: "higher"},
	{Name: "driver.ack_p50_us", Unit: "us", Better: "lower"},
	{Name: "driver.samples", Unit: "count", Better: "higher"},
	{Name: "driver.raw_ops_per_s", Unit: "op/s", Better: "higher"},
	{Name: "driver.speed", Unit: "ratio", Better: "higher"},
	{Name: "driver.round_spread_pct", Unit: "%", Better: "lower"},
	{Name: "driver.gen_us_per_op", Unit: "us", Better: "lower"},
	{Name: "trace.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.unattributed_pct", Unit: "%", Better: "lower"},
}

// environment is recorded in every result file.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Transport  string `json:"transport"`
	Load       string `json:"load"`
	Coalescing string `json:"coalescing"`
}

func currentEnvironment() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: commit, Transport: "loopback TCP, single process",
		Load:       "closed loop: at most 2 generating goroutines and 2 generator-side connections",
		Coalescing: fmt.Sprintf("CoalesceMaxTxns %d, CoalesceMaxUpdates %d, window 0; Obs nil; default digest batching", coalesceMaxTxns, coalesceMaxUpdates),
	}
}

// resultFile is what a full run writes; compare reads two of them.
type resultFile struct {
	Claim     *string            `json:"claim"` // this benchmark claims no gain
	Env       environment        `json:"env"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run one workload and print one JSON result line (default: all, with a report)")
		seed    = flag.Int64("seed", 1, "seed for port names, VLAN assignment, MACs, filter values and op order")
		seconds = flag.Float64("seconds", 22, "measuring time per workload")
		trace   = flag.Int("trace", 0, "with --workload: 1 adds the traced pass and the probes and prints the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "tiny op counts: every code path, no meaningful timing")
		out     = flag.String("out", "out", "directory for result.json, trace-<workload>.json and the WAL")
	)
	flag.Parse()
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		os.Exit(contractRun(w, *seed, *seconds, *trace == 1, *smoke, *out))
	}
	os.Exit(fullRun(*seed, *seconds, *smoke, *out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runSetups is how many times a run sets up; setup_s is the median.
const runSetups = 5

// preset applies --smoke to a workload and its run configuration.
func preset(w *workload, cfg runConfig, smoke bool) (*workload, runConfig) {
	if smoke {
		cfg.seconds, cfg.setups = 0, 1
		return w.smoke(), cfg
	}
	return w, cfg
}

// contractRun is one driver run: one workload, and as the last line of
// standard output one JSON object with the end-to-end metrics (untraced)
// or the per-layer metrics (traced).
func contractRun(w *workload, seed int64, seconds float64, traced, smoke bool, out string) int {
	cfg := runConfig{seed: seed, seconds: seconds, setups: runSetups, traced: traced, scratch: out}
	if traced {
		cfg.seconds /= 2 // the traced pass and the probes take the other half
	}
	res, err := runWorkload(preset(w, cfg, smoke))
	if err != nil {
		fatal(err)
	}
	defs, values := endToEnd, res.EndToEnd
	if traced {
		defs, values = perLayer, res.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]metric, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = metric{values[d.Name], d.Unit}
	}
	for i, rd := range res.Rounds {
		fmt.Fprintf(os.Stderr, "round %d: %+v\n", i+1, rd)
	}
	fmt.Fprintf(os.Stderr, "setup_s %v; %.1fs in all\n", res.SetupS, res.Seconds)
	if res.Error != "" {
		fmt.Fprintln(os.Stderr, "benchmark:", w.name+":", res.Error)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// fullRun runs every workload with the traced pass and the probes,
// prints the report and writes result.json.
func fullRun(seed int64, seconds float64, smoke bool, out string) int {
	rf := &resultFile{Env: currentEnvironment(), Seed: seed, Seconds: seconds, Workloads: make(map[string]*result)}
	cfg := runConfig{seed: seed, seconds: seconds, setups: runSetups, traced: true, scratch: out}
	code := 0
	for _, w := range workloads {
		res, err := runWorkload(preset(w, cfg, smoke))
		if err != nil {
			fatal(err)
		}
		rf.Workloads[w.name] = res
		report(os.Stdout, res)
		if !res.Correct {
			code = 1
		}
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(out, "result.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (claim: null; %s; %d CPUs, GOMAXPROCS %d, %s, commit %s)\n", path,
		rf.Env.Transport, rf.Env.NProc, rf.Env.GOMAXPROCS, rf.Env.GoVersion, rf.Env.GitCommit)
	return code
}

// report prints one workload's metrics by name with their units.
func report(f *os.File, res *result) {
	fmt.Fprintf(f, "== %s  seed %d  %d rounds in %.1fs  ops per round: latency %d, throughput %d, traced %d\n",
		res.Workload, res.Seed, len(res.Rounds), res.Seconds,
		res.OpCounts["latency"], res.OpCounts["throughput"], res.OpCounts["traced"])
	fmt.Fprintf(f, "   attempted %d  completed %d  failed %d  oracle %s\n",
		res.Attempted, res.Completed, res.Failed, map[bool]string{true: "pass", false: "FAIL: " + res.Error}[res.Correct])
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(f, "   %-28s %14.4f %-6s\n", "failed_ops_ratio", ratio, "ratio")
	for _, d := range endToEnd {
		fmt.Fprintf(f, "   %-28s %14.4f %-6s (bound %.0f%%)\n", d.Name, res.EndToEnd[d.Name], d.Unit, 100*d.Bound)
	}
	names := make([]string, 0, len(res.PerLayer))
	for n := range res.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	units := make(map[string]string, len(perLayer))
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	for _, n := range names {
		fmt.Fprintf(f, "     %-28s %14.4f %s\n", n, res.PerLayer[n], units[n])
	}
	fmt.Fprintf(f, "     driver.op_p99_us is p%g of %d samples (the highest percentile with at least 10 samples beyond it)\n",
		res.PerLayer["driver.op_tail_pct"], int(res.PerLayer["driver.samples"]))
}
