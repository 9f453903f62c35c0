package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// verdict of one (end-to-end metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// roundValue reads one per-round metric.
var roundValue = map[string]func(round) float64{
	"ops_per_s":          func(r round) float64 { return r.OpsPerS },
	"raw_ops_per_s":      func(r round) float64 { return r.RawOpsPerS },
	"speed":              func(r round) float64 { return r.Speed },
	"op_p50_us":          func(r round) float64 { return r.OpP50Us },
	"allocs_per_op":      func(r round) float64 { return r.AllocsPerOp },
	"alloc_bytes_per_op": func(r round) float64 { return r.AllocBytesPerOp },
	"fwd_pkts_per_s":     func(r round) float64 { return r.FwdPktsPerS },
}

// samples returns the per-round (or per-set-up) values of a metric; an
// end-to-end metric is their median.
func (res *result) samples(metric string) []float64 {
	switch metric {
	case "setup_s":
		return res.SetupS
	case "heap_live_mb":
		return []float64{res.HeapMiB}
	}
	vs := make([]float64, len(res.Rounds))
	for i, rd := range res.Rounds {
		vs[i] = roundValue[metric](rd)
	}
	return vs
}

// judge applies a metric's bound to a baseline and a candidate set of
// samples. A side whose median the samples do not pin down to within the
// bound — their spread (IQR ÷ median) over √n is wider than the bound —
// leaves the pair unresolved; otherwise the candidate's median may be
// worse than the baseline's by at most the bound.
func judge(d metricDef, a, b []float64) (verdict string, worseBy, unsure float64) {
	ma, mb := median(a), median(b)
	unsure = max(spread(a)/math.Sqrt(float64(len(a))), spread(b)/math.Sqrt(float64(len(b))))
	if ma != 0 {
		worseBy = (mb - ma) / ma
		if d.Better == "higher" {
			worseBy = -worseBy
		}
	}
	switch {
	case unsure > d.Bound:
		return verdictUnresolved, worseBy, unsure
	case worseBy > d.Bound:
		return verdictRegressed, worseBy, unsure
	}
	return verdictOK, worseBy, unsure
}

// resultSet is the runs of one side of a comparison, by workload.
type resultSet map[string][]*result

// readSet reads a comma-separated list of result files.
func readSet(paths string) (resultSet, error) {
	set := make(resultSet)
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, res := range rf.Workloads {
			set[name] = append(set[name], res)
		}
	}
	return set, nil
}

// samples pools a metric's samples over the set's runs of a workload.
func (s resultSet) samples(workload, metric string) (vs []float64, failed int64) {
	for _, res := range s[workload] {
		vs = append(vs, res.samples(metric)...)
		failed += res.Failed
	}
	return vs, failed
}

// compareMain prints one row per (end-to-end metric, workload) and
// returns non-zero on anything but ok.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare <baseline.json[,more.json...]> <candidate.json[,more.json...]>")
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fatal(err)
	}
	b, err := readSet(args[1])
	if err != nil {
		fatal(err)
	}
	code := 0
	fmt.Printf("%-14s %-20s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "unsure", "bound", "verdict")
	for _, w := range workloads {
		if len(a[w.name]) == 0 || len(b[w.name]) == 0 {
			fmt.Printf("%-14s missing from one side\n", w.name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			sa, fa := a.samples(w.name, d.Name)
			sb, fb := b.samples(w.name, d.Name)
			v, worse, unsure := judge(d, sa, sb)
			if fa+fb > 0 {
				v = fmt.Sprintf("%s (failed ops: %d, %d)", verdictRegressed, fa, fb)
			}
			fmt.Printf("%-14s %-20s %14.4f %14.4f %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				w.name, d.Name, median(sa), median(sb), 100*worse, 100*unsure, 100*d.Bound, v)
			if v != verdictOK {
				code = 1
			}
		}
	}
	return code
}
