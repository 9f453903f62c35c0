package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestHealthzReadyz(t *testing.T) {
	o := NewObserver()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	if code, body := get(t, srv, "/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _ := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before SetReady = %d, want 503", code)
	}
	o.SetReady(true)
	if code, body := get(t, srv, "/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("/readyz after SetReady = %d %q, want 200 ready", code, body)
	}
	o.SetReady(false)
	if code, _ := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after SetReady(false) = %d, want 503", code)
	}
}

func TestReadyzDegraded(t *testing.T) {
	o := NewObserver()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	o.SetReady(true)

	o.SetDegraded("sw1", "redialing")
	o.SetDegraded("ovsdb", "resync")
	code, body := get(t, srv, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while degraded = %d, want 503", code)
	}
	if !strings.Contains(body, "degraded: ovsdb: resync; sw1: redialing") {
		t.Fatalf("/readyz degraded body = %q", body)
	}

	// Recovery is per key: one cleared connection keeps the other's 503.
	o.ClearDegraded("sw1")
	if code, body := get(t, srv, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "ovsdb") {
		t.Fatalf("/readyz with one degraded key = %d %q", code, body)
	}
	o.ClearDegraded("ovsdb")
	if code, body := get(t, srv, "/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("/readyz after full recovery = %d %q", code, body)
	}

	// Draining and not-ready outrank degraded in the reported reason.
	o.SetDegraded("sw1", "")
	o.SetReady(false)
	if _, body := get(t, srv, "/readyz"); !strings.Contains(body, "not ready") {
		t.Fatalf("/readyz not-ready body = %q", body)
	}
}

func TestNilObserverDegradedIsNoOp(t *testing.T) {
	var o *Observer
	o.SetDegraded("x", "y") // must not panic
	o.ClearDegraded("x")
	if r := o.DegradedReasons(); r != nil {
		t.Fatalf("nil observer degraded reasons = %v", r)
	}
}

func TestNilObserverReadyStateIsNoOp(t *testing.T) {
	var o *Observer
	o.SetReady(true) // must not panic
	if o.Ready() {
		t.Fatal("nil observer reports ready")
	}
	o.SetExplainer(nil) // must not panic
}

func TestTracesFiltering(t *testing.T) {
	o := NewObserver()
	base := time.Unix(100, 0)
	for txn := uint64(1); txn <= 3; txn++ {
		o.Tr().Record(txn, "test", Stage{Name: "commit", Start: base, End: base.Add(time.Millisecond)})
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/debug/traces?txn=2")
	if code != 200 {
		t.Fatalf("?txn=2 = %d: %s", code, body)
	}
	var tr Trace
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("?txn=2 not a single trace: %v\n%s", err, body)
	}
	if tr.TxnID != 2 || len(tr.Stages) != 1 {
		t.Fatalf("?txn=2 returned txn %d with %d stages", tr.TxnID, len(tr.Stages))
	}

	if code, _ := get(t, srv, "/debug/traces?txn=99"); code != http.StatusNotFound {
		t.Fatalf("unknown txn = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/debug/traces?txn=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad txn id = %d, want 400", code)
	}

	code, body = get(t, srv, "/debug/traces?limit=2")
	if code != 200 {
		t.Fatalf("?limit=2 = %d", code)
	}
	var dump struct {
		Traces []Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &dump); err != nil {
		t.Fatalf("decoding dump: %v", err)
	}
	if len(dump.Traces) != 2 {
		t.Fatalf("?limit=2 returned %d traces", len(dump.Traces))
	}
	// Most recent two, oldest first.
	if dump.Traces[0].TxnID != 2 || dump.Traces[1].TxnID != 3 {
		t.Fatalf("?limit=2 returned txns %d,%d, want 2,3", dump.Traces[0].TxnID, dump.Traces[1].TxnID)
	}
}

// fakeExplainer answers "known" and fails everything else.
type fakeExplainer struct{}

func (fakeExplainer) Explain(relation, key string, maxDepth, maxNodes int) (any, error) {
	switch relation {
	case "known":
		return map[string]string{"relation": relation, "key": key}, nil
	case "gone":
		return nil, fmt.Errorf("%w: no such fact", ErrNotFound)
	default:
		return nil, errors.New("malformed query")
	}
}

func TestExplainEndpoint(t *testing.T) {
	o := NewObserver()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	if code, _ := get(t, srv, "/debug/explain?relation=known"); code != http.StatusServiceUnavailable {
		t.Fatalf("no explainer = %d, want 503", code)
	}
	o.SetExplainer(fakeExplainer{})
	if code, _ := get(t, srv, "/debug/explain"); code != http.StatusBadRequest {
		t.Fatalf("missing relation = %d, want 400", code)
	}
	code, body := get(t, srv, "/debug/explain?relation=known&key=k")
	if code != 200 || !strings.Contains(body, `"key": "k"`) {
		t.Fatalf("known = %d %q, want 200 with key", code, body)
	}
	if code, _ := get(t, srv, "/debug/explain?relation=gone"); code != http.StatusNotFound {
		t.Fatalf("ErrNotFound = %d, want 404", code)
	}
	if code, _ := get(t, srv, "/debug/explain?relation=other"); code != http.StatusBadRequest {
		t.Fatalf("other error = %d, want 400", code)
	}
	for _, bad := range []string{"depth=abc", "nodes=-3"} {
		if code, _ := get(t, srv, "/debug/explain?relation=known&key=k&"+bad); code != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", bad, code)
		}
	}
}

// parseHistogram pulls one histogram's buckets, sum, and count out of a
// Prometheus 0.0.4 exposition.
type parsedHist struct {
	buckets []struct {
		le  float64
		cum uint64
	}
	sum   float64
	count uint64
}

func parseHistogram(t *testing.T, exposition, name string) parsedHist {
	t.Helper()
	var h parsedHist
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		series, valStr := fields[0], fields[1]
		switch {
		case strings.HasPrefix(series, name+"_bucket{"):
			start := strings.Index(series, `le="`)
			if start < 0 {
				t.Fatalf("bucket without le label: %q", line)
			}
			leStr := series[start+4:]
			leStr = leStr[:strings.Index(leStr, `"`)]
			var le float64
			if leStr == "+Inf" {
				le = inf()
			} else {
				var err error
				le, err = strconv.ParseFloat(leStr, 64)
				if err != nil {
					t.Fatalf("bad le %q: %v", leStr, err)
				}
			}
			cum, err := strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				t.Fatalf("bad bucket value %q: %v", valStr, err)
			}
			h.buckets = append(h.buckets, struct {
				le  float64
				cum uint64
			}{le, cum})
		case series == name+"_sum":
			var err error
			h.sum, err = strconv.ParseFloat(valStr, 64)
			if err != nil {
				t.Fatalf("bad sum %q: %v", valStr, err)
			}
		case series == name+"_count":
			var err error
			h.count, err = strconv.ParseUint(valStr, 10, 64)
			if err != nil {
				t.Fatalf("bad count %q: %v", valStr, err)
			}
		}
	}
	if len(h.buckets) == 0 {
		t.Fatalf("histogram %s not found in exposition:\n%s", name, exposition)
	}
	return h
}

func inf() float64 { return math.Inf(1) }

// TestHistogramExpositionGolden scrapes /metrics and checks the 0.0.4
// structural invariants of the histogram exposition: buckets ordered by
// le and monotonically non-decreasing, the +Inf bucket present and equal
// to _count, and _sum/_count matching the observed samples exactly.
func TestHistogramExpositionGolden(t *testing.T) {
	o := NewObserver()
	h := o.Reg().Histogram("test_seconds", "golden histogram", []float64{0.1, 1, 10})
	samples := []float64{0.05, 0.5, 0.5, 5, 50}
	var wantSum float64
	for _, s := range samples {
		h.Observe(s)
		wantSum += s
	}
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	ph := parseHistogram(t, body, "test_seconds")

	if !sort.SliceIsSorted(ph.buckets, func(a, b int) bool { return ph.buckets[a].le < ph.buckets[b].le }) {
		t.Fatalf("buckets not ordered by le: %+v", ph.buckets)
	}
	for i := 1; i < len(ph.buckets); i++ {
		if ph.buckets[i].cum < ph.buckets[i-1].cum {
			t.Fatalf("bucket counts not monotonic: %+v", ph.buckets)
		}
	}
	last := ph.buckets[len(ph.buckets)-1]
	if last.le != inf() {
		t.Fatalf("last bucket le = %v, want +Inf", last.le)
	}
	if last.cum != ph.count {
		t.Fatalf("+Inf bucket %d != _count %d", last.cum, ph.count)
	}
	if ph.count != uint64(len(samples)) {
		t.Fatalf("_count = %d, want %d", ph.count, len(samples))
	}
	if ph.sum != wantSum {
		t.Fatalf("_sum = %v, want %v", ph.sum, wantSum)
	}
	// Per-bucket golden counts for the fixed samples above.
	want := []uint64{1, 3, 4, 5}
	for i, b := range ph.buckets {
		if b.cum != want[i] {
			t.Fatalf("bucket %d (le=%v) = %d, want %d", i, b.le, b.cum, want[i])
		}
	}
}

// TestHistogramExpositionConsistentUnderWrites scrapes concurrently with
// a writer and checks every scrape is internally consistent: +Inf equals
// _count and buckets stay monotone. (Guards the _count-from-cumulative
// fix; the previous independent counter could disagree transiently.)
func TestHistogramExpositionConsistentUnderWrites(t *testing.T) {
	o := NewObserver()
	h := o.Reg().Histogram("hot_seconds", "hammered histogram", []float64{1, 10})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(float64(i % 20))
			}
		}
	}()
	for i := 0; i < 200; i++ {
		var sb strings.Builder
		o.Reg().WritePrometheus(&sb)
		ph := parseHistogram(t, sb.String(), "hot_seconds")
		for j := 1; j < len(ph.buckets); j++ {
			if ph.buckets[j].cum < ph.buckets[j-1].cum {
				t.Fatalf("scrape %d: buckets not monotonic: %+v", i, ph.buckets)
			}
		}
		if last := ph.buckets[len(ph.buckets)-1]; last.cum != ph.count {
			t.Fatalf("scrape %d: +Inf bucket %d != _count %d", i, last.cum, ph.count)
		}
	}
	close(stop)
	wg.Wait()
}
