// Command nerpa-bench regenerates the paper's tables and figures
// (see DESIGN.md for the experiment index and EXPERIMENTS.md for
// paper-vs-measured results).
//
//	nerpa-bench -exp all            # everything at paper scale
//	nerpa-bench -exp ports -n 2000  # T1, the §4.3 2000-port measurement
//	nerpa-bench -exp lb|incr|label|label-dense|fig3|loc
//	nerpa-bench -check hack/gates.json -exp recovery,fanout  # run, then gate the reports
//
// Every experiment that writes a BENCH_*.json report writes it into the
// working directory, so run it from a scratch directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// parseCounts parses a comma-separated list of positive integers.
func parseCounts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad element %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// report writes an experiment's result to path as indented JSON (the
// BENCH_*.json reports -check gates).
func report[T fmt.Stringer](path string, res T, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s\n", path)
	return res, nil
}

var experiments = []string{"ports", "lb", "incr", "label", "label-dense", "fig3", "loc",
	"provenance", "reconnect", "recovery", "fanout"}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(experiments, ", ")+", all")
	check := flag.String("check", "", "gates file (hack/gates.json): after the experiments have run, hold the BENCH_*.json reports in the working directory to its thresholds; exit 1 if a gate fails")
	n := flag.Int("n", 2000, "ports for -exp ports")
	changes := flag.Int("changes", 50, "changes for -exp incr")
	nodes := flag.Int("nodes", 20000, "nodes for -exp label")
	churn := flag.Int("churn", 100, "link events for -exp label")
	reconnectPorts := flag.String("reconnect-ports", "50,250,1000", "comma-separated port counts for -exp reconnect")
	reconnectRestarts := flag.Int("reconnect-restarts", 5, "switch restarts per size for -exp reconnect")
	recoveryTxns := flag.Int("recovery-txns", 4000, "WAL commits for -exp recovery cold-restart measurement")
	flag.Parse()

	var gates []gate
	if *check != "" {
		var err error
		if gates, err = loadGates(*check); err != nil {
			log.Fatalf("-check: %v", err)
		}
	}

	run := func(name string, f func() (fmt.Stringer, error)) {
		res, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(res)
	}

	selected := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if name != "all" && !slices.Contains(experiments, name) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			flag.Usage()
			os.Exit(2)
		}
		selected[name] = true
	}
	if len(selected) == 0 && *check == "" {
		fmt.Fprintln(os.Stderr, "no experiment selected")
		flag.Usage()
		os.Exit(2)
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	if want("fig3") {
		run("fig3", func() (fmt.Stringer, error) { return bench.RunFig3(), nil })
	}
	if want("ports") {
		run("ports", func() (fmt.Stringer, error) { return bench.RunPortScale(*n) })
	}
	if want("loc") {
		run("loc", func() (fmt.Stringer, error) { return bench.RunLOC() })
	}
	if want("lb") {
		run("lb", func() (fmt.Stringer, error) { return bench.RunLoadBalancer(50, 500) })
	}
	if want("incr") {
		run("incr", func() (fmt.Stringer, error) {
			return bench.RunIncrVsRecompute([]int{100, 500, 2000, 8000}, *changes)
		})
	}
	if want("label") {
		run("label", func() (fmt.Stringer, error) { return bench.RunLabeling(*nodes, 0, *churn) })
	}
	if want("provenance") {
		run("provenance", func() (fmt.Stringer, error) {
			res, err := bench.RunProvenance(1000, 32, 200)
			return report("BENCH_provenance.json", res, err)
		})
	}
	if want("reconnect") {
		run("reconnect", func() (fmt.Stringer, error) {
			sizes, err := parseCounts(*reconnectPorts)
			if err != nil {
				return nil, fmt.Errorf("bad -reconnect-ports: %w", err)
			}
			res, err := bench.RunReconnect(sizes, *reconnectRestarts)
			return report("BENCH_reconnect.json", res, err)
		})
	}
	if want("recovery") {
		run("recovery", func() (fmt.Stringer, error) {
			res, err := bench.RunRecovery(*recoveryTxns, 50)
			return report("BENCH_recovery.json", res, err)
		})
	}
	if want("fanout") {
		run("fanout", func() (fmt.Stringer, error) {
			res, err := bench.RunFanout(bench.FanoutConfig{})
			return report("BENCH_fanout.json", res, err)
		})
	}
	if want("label-dense") {
		run("label-dense", func() (fmt.Stringer, error) {
			res, err := bench.RunLabelingDense(1000, 3000, 20)
			return report("BENCH_label_dense.json", res, err)
		})
	}
	if *check != "" && !checkGates(gates) {
		os.Exit(1)
	}
}
