package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// memberServer boots an httptest server around a real Observer acting
// as one fleet member.
func memberServer(t *testing.T, plane, instance string) (*obs.Observer, *httptest.Server) {
	t.Helper()
	o := obs.NewObserver()
	o.SetIdentity(plane, instance)
	o.SetReady(true)
	srv := httptest.NewServer(o.Handler())
	t.Cleanup(srv.Close)
	return o, srv
}

// stage builds a trace stage spanning [start, start+d].
func stage(name string, start time.Time, d time.Duration) obs.Stage {
	return obs.Stage{Name: name, Start: start, End: start.Add(d)}
}

func TestAggregatorStitchesAcrossMembers(t *testing.T) {
	db, dbSrv := memberServer(t, "ovsdb", "db0")
	ctl, ctlSrv := memberServer(t, "controller", "ctl0")
	sw, swSrv := memberServer(t, "switchsim", "sw0")

	// One transaction whose stages are split across the three processes,
	// the multi-process deployment shape.
	t0 := time.Now().Add(-time.Second)
	db.Tr().Record(7, "ovsdb", stage(obs.StageCommit, t0, time.Millisecond))
	db.Tr().Record(7, "ovsdb", stage("monitor", t0.Add(2*time.Millisecond), time.Millisecond))
	ctl.Tr().Record(7, "ovsdb", stage("delta", t0.Add(4*time.Millisecond), time.Millisecond))
	ctl.Tr().Record(7, "ovsdb", stage("push", t0.Add(6*time.Millisecond), 2*time.Millisecond))
	sw.Tr().Record(7, "p4rt", stage(obs.StageSwitchApplied, t0.Add(7*time.Millisecond), time.Millisecond))
	// A second transaction that never reached the data plane.
	db.Tr().Record(9, "ovsdb", stage(obs.StageCommit, t0.Add(time.Millisecond), time.Millisecond))

	agg, err := New(Config{Targets: []string{
		"db=" + dbSrv.URL, "ctl=" + ctlSrv.URL, "sw=" + swSrv.URL,
	}})
	if err != nil {
		t.Fatal(err)
	}
	agg.PollOnce()

	st := agg.Status()
	if len(st.Members) != 3 {
		t.Fatalf("got %d members, want 3: %+v", len(st.Members), st.Members)
	}
	for _, m := range st.Members {
		if m.Health != HealthUp {
			t.Fatalf("member %s health = %s, want up (%+v)", m.Name, m.Health, m)
		}
	}
	planes := map[string]string{}
	for _, m := range st.Members {
		planes[m.Name] = m.Plane
	}
	if planes["db0"] != "ovsdb" || planes["ctl0"] != "controller" || planes["sw0"] != "switchsim" {
		t.Fatalf("identity attribution wrong: %v", planes)
	}

	tr, ok := agg.Trace(7)
	if !ok {
		t.Fatal("no stitched trace for txn 7")
	}
	if !tr.Complete || len(tr.Missing) != 0 {
		t.Fatalf("txn 7 should be complete: %+v", tr)
	}
	if len(tr.Stages) != 5 {
		t.Fatalf("txn 7 has %d stages, want 5: %+v", len(tr.Stages), tr)
	}
	if got := tr.Stages[len(tr.Stages)-1].Name; got != obs.StageSwitchApplied {
		t.Fatalf("timeline ends in %q, want switch-applied", got)
	}
	if tr.Stages[0].Member != "db0" || tr.Stages[len(tr.Stages)-1].Member != "sw0" {
		t.Fatalf("stage attribution wrong: %+v", tr.Stages)
	}
	// commit starts at t0, switch-applied ends at t0+8ms. The members
	// share this process's clock, so each reported skew is that
	// estimate's whole error, and the stitched interval is off by at
	// most one such error at either end.
	var slack time.Duration
	for _, m := range st.Members {
		slack = max(slack, 2*time.Duration(m.SkewNs).Abs())
	}
	if got := time.Duration(tr.ConvergenceNs); (got - 8*time.Millisecond).Abs() > slack {
		t.Fatalf("convergence = %v, want 8ms within the reported skew error of %v", got, slack)
	}

	partial, ok := agg.Trace(9)
	if !ok {
		t.Fatal("no stitched trace for txn 9")
	}
	if partial.Complete {
		t.Fatalf("txn 9 should be incomplete: %+v", partial)
	}
	want := []string{"monitor", "delta", "push", obs.StageSwitchApplied}
	if strings.Join(partial.Missing, ",") != strings.Join(want, ",") {
		t.Fatalf("txn 9 missing = %v, want %v", partial.Missing, want)
	}

	if st.Convergence.Count != 1 || st.Convergence.P50 <= 0 {
		t.Fatalf("convergence stats = %+v, want count 1 with positive p50", st.Convergence)
	}
}

func TestAggregatorMetricsAndStaleness(t *testing.T) {
	db, dbSrv := memberServer(t, "ovsdb", "db0")
	_, swSrv := memberServer(t, "switchsim", "sw0")

	t0 := time.Now().Add(-time.Second)
	db.Tr().Record(3, "ovsdb", stage(obs.StageCommit, t0, time.Millisecond))
	db.Tr().Record(3, "ovsdb", stage("monitor", t0.Add(time.Millisecond), time.Millisecond))
	db.Tr().Record(3, "ovsdb", stage("delta", t0.Add(2*time.Millisecond), time.Millisecond))
	db.Tr().Record(3, "ovsdb", stage("push", t0.Add(3*time.Millisecond), time.Millisecond))
	db.Tr().Record(3, "ovsdb", stage(obs.StageSwitchApplied, t0.Add(4*time.Millisecond), time.Millisecond))

	agg, err := New(Config{Targets: []string{"db=" + dbSrv.URL, "sw=" + swSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	agg.PollOnce()

	fsrv := httptest.NewServer(agg.Handler())
	defer fsrv.Close()
	get := func(path string) string {
		resp, err := http.Get(fsrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}

	metrics := get("/fleet/metrics")
	for _, series := range []string{
		`fleet_members 2`,
		`fleet_members_up 2`,
		`fleet_member_up{member="db0"} 1`,
		`fleet_convergence_count 1`,
		`fleet_convergence_seconds{quantile="0.5"}`,
	} {
		if !strings.Contains(metrics, series) {
			t.Fatalf("/fleet/metrics missing %q:\n%s", series, metrics)
		}
	}
	// The p50 must be nonzero: the sample is ~5ms.
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, `fleet_convergence_seconds{quantile="0.5"}`) {
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil || v <= 0 {
				t.Fatalf("p50 not positive: %q (%v)", line, err)
			}
		}
	}

	var status Status
	if err := json.Unmarshal([]byte(get("/fleet")), &status); err != nil {
		t.Fatal(err)
	}
	if status.Traces != 1 || status.Incomplete != 0 {
		t.Fatalf("status traces = %d incomplete = %d, want 1/0", status.Traces, status.Incomplete)
	}

	// Kill the switch member: the very next poll marks it stale.
	swSrv.Close()
	agg.PollOnce()
	var after Status
	if err := json.Unmarshal([]byte(get("/fleet")), &after); err != nil {
		t.Fatal(err)
	}
	for _, m := range after.Members {
		want := HealthUp
		if m.Name == "sw0" {
			want = HealthStale
		}
		if m.Health != want {
			t.Fatalf("member %s health = %s, want %s", m.Name, m.Health, want)
		}
	}
	metrics = get("/fleet/metrics")
	if !strings.Contains(metrics, `fleet_member_up{member="sw0"} 0`) {
		t.Fatalf("sw0 still up in metrics after kill:\n%s", metrics)
	}

	// The stitched trace survives member loss: it was captured earlier.
	if _, ok := agg.Trace(3); !ok {
		t.Fatal("stitched trace lost after member death")
	}

	// One-shot text rendering names the members and the health states.
	text := after.Text()
	for _, wantStr := range []string{"db0", "sw0", "stale", "convergence"} {
		if !strings.Contains(text, wantStr) {
			t.Fatalf("text rendering missing %q:\n%s", wantStr, text)
		}
	}
}

// TestAggregatorSkewCorrection fakes a member whose wall clock runs an
// hour ahead and checks that stitching maps its stages back onto the
// aggregator's clock.
func TestAggregatorSkewCorrection(t *testing.T) {
	const skew = time.Hour
	t0 := time.Now().Add(-time.Second)

	db, dbSrv := memberServer(t, "ovsdb", "db0")
	db.Tr().Record(5, "ovsdb", stage(obs.StageCommit, t0, time.Millisecond))
	db.Tr().Record(5, "ovsdb", stage("monitor", t0.Add(time.Millisecond), time.Millisecond))
	db.Tr().Record(5, "ovsdb", stage("delta", t0.Add(2*time.Millisecond), time.Millisecond))
	db.Tr().Record(5, "ovsdb", stage("push", t0.Add(3*time.Millisecond), time.Millisecond))

	// The skewed switch: every timestamp it reports — stage times and its
	// X-Obs-Now clock anchor — is one hour in the future.
	swMux := http.NewServeMux()
	swMux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Obs-Now-Unix-Nano", strconv.FormatInt(time.Now().Add(skew).UnixNano(), 10))
		w.Write([]byte("ready\n"))
	})
	swMux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Obs-Plane", "switchsim")
		w.Header().Set("X-Obs-Instance", "sw0")
		w.Header().Set("X-Obs-Now-Unix-Nano", strconv.FormatInt(time.Now().Add(skew).UnixNano(), 10))
		tr := obs.Trace{TxnID: 5, Source: "p4rt", Stages: []obs.Stage{
			stage(obs.StageSwitchApplied, t0.Add(skew).Add(4*time.Millisecond), time.Millisecond),
		}}
		json.NewEncoder(w).Encode(struct {
			Traces []obs.Trace `json:"traces"`
		}{[]obs.Trace{tr}})
	})
	swSrv := httptest.NewServer(swMux)
	defer swSrv.Close()

	agg, err := New(Config{Targets: []string{"db=" + dbSrv.URL, "sw=" + swSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	agg.PollOnce()

	tr, ok := agg.Trace(5)
	if !ok {
		t.Fatal("no stitched trace for txn 5")
	}
	if !tr.Complete {
		t.Fatalf("trace should be complete after skew correction: %+v", tr)
	}
	// Without correction the convergence would read ~1h; corrected it is
	// ~5ms (plus the request round-trip error, well under a second).
	if got := time.Duration(tr.ConvergenceNs); got < 0 || got > time.Second {
		t.Fatalf("skew-corrected convergence = %v, want ~5ms", got)
	}
	if got := tr.Stages[len(tr.Stages)-1].Name; got != obs.StageSwitchApplied {
		t.Fatalf("timeline ends in %q after correction, want switch-applied", got)
	}
	st := agg.Status()
	for _, m := range st.Members {
		if m.Name == "sw0" {
			if got := time.Duration(m.SkewNs); got < 59*time.Minute || got > 61*time.Minute {
				t.Fatalf("estimated skew = %v, want ~1h", got)
			}
		}
	}
}

// TestAggregatorCausalOrderUnderSkewError fakes a switch whose clock
// anchor is 2ms off the clock its stages were stamped with — the error
// an HTTP-poll skew estimate carries — so its apply, which ran inside
// the controller's push, lands before the delta once corrected. The
// stitcher moves it back behind its cause: the timeline still ends at
// the data plane and the apply does not precede the push.
func TestAggregatorCausalOrderUnderSkewError(t *testing.T) {
	const estErr = 2 * time.Millisecond
	t0 := time.Now().Add(-time.Second)

	db, dbSrv := memberServer(t, "ovsdb", "db0")
	db.Tr().Record(5, "ovsdb", stage(obs.StageCommit, t0, time.Millisecond))
	db.Tr().Record(5, "ovsdb", stage("monitor", t0.Add(time.Millisecond), time.Millisecond))
	db.Tr().Record(5, "ovsdb", stage("delta", t0.Add(2*time.Millisecond), time.Millisecond))
	db.Tr().Record(5, "ovsdb", stage("push", t0.Add(3*time.Millisecond), time.Millisecond))

	swMux := http.NewServeMux()
	swMux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Obs-Plane", "switchsim")
		w.Header().Set("X-Obs-Instance", "sw0")
		w.Header().Set("X-Obs-Now-Unix-Nano", strconv.FormatInt(time.Now().Add(estErr).UnixNano(), 10))
		tr := obs.Trace{TxnID: 5, Source: "p4rt", Stages: []obs.Stage{
			stage(obs.StageSwitchApplied, t0.Add(3500*time.Microsecond), 100*time.Microsecond),
		}}
		json.NewEncoder(w).Encode(struct {
			Traces []obs.Trace `json:"traces"`
		}{[]obs.Trace{tr}})
	})
	swSrv := httptest.NewServer(swMux)
	defer swSrv.Close()

	agg, err := New(Config{Targets: []string{"db=" + dbSrv.URL, "sw=" + swSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	agg.PollOnce()

	tr, ok := agg.Trace(5)
	if !ok || !tr.Complete {
		t.Fatalf("no complete stitched trace for txn 5: %+v", tr)
	}
	var names []string
	for _, sg := range tr.Stages {
		names = append(names, sg.Name)
	}
	if got := strings.Join(names, ","); got != "commit,monitor,delta,push,switch-applied" {
		t.Fatalf("stage order = %s, want the causal order", got)
	}
	push, applied := tr.Stages[3], tr.Stages[4]
	if applied.Start.Before(push.Start) || applied.End.Sub(applied.Start) != 100*time.Microsecond {
		t.Fatalf("apply %v..%v should keep its length and not precede push start %v", applied.Start, applied.End, push.Start)
	}
	if got := time.Duration(tr.ConvergenceNs); got < 3*time.Millisecond || got > 4*time.Millisecond {
		t.Fatalf("convergence = %v, want commit start → clamped apply end (~3.1ms)", got)
	}
}

// TestAggregatorWriteBeforeApplyUnderSkewError: the controller's write
// stage, which is not an expected stage, still causes the switch's
// apply. With the switch's skew estimate 2ms off, the stitcher moves the
// apply behind the write, not merely behind the push, so the timeline
// still ends at the data plane, and the text view names the device.
func TestAggregatorWriteBeforeApplyUnderSkewError(t *testing.T) {
	const estErr = 2 * time.Millisecond
	t0 := time.Now().Add(-time.Second)

	ctl, ctlSrv := memberServer(t, "controller", "ctl0")
	ctl.Tr().Record(5, "ovsdb", stage(obs.StageCommit, t0, time.Millisecond))
	ctl.Tr().Record(5, "ovsdb", stage("monitor", t0.Add(time.Millisecond), time.Millisecond))
	ctl.Tr().Record(5, "ovsdb", stage("delta", t0.Add(2*time.Millisecond), time.Millisecond))
	ctl.Tr().Record(5, "ovsdb", stage("push", t0.Add(3*time.Millisecond), time.Millisecond))
	write := stage("write", t0.Add(3200*time.Microsecond), 600*time.Microsecond)
	write.Device = "sw0"
	ctl.Tr().Record(5, "ovsdb", write.F("updates", 4))

	swMux := http.NewServeMux()
	swMux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Obs-Plane", "switchsim")
		w.Header().Set("X-Obs-Instance", "sw0")
		w.Header().Set("X-Obs-Now-Unix-Nano", strconv.FormatInt(time.Now().Add(estErr).UnixNano(), 10))
		tr := obs.Trace{TxnID: 5, Source: "p4rt", Stages: []obs.Stage{
			stage(obs.StageSwitchApplied, t0.Add(3500*time.Microsecond), 100*time.Microsecond),
		}}
		json.NewEncoder(w).Encode(struct {
			Traces []obs.Trace `json:"traces"`
		}{[]obs.Trace{tr}})
	})
	swSrv := httptest.NewServer(swMux)
	defer swSrv.Close()

	agg, err := New(Config{Targets: []string{"ctl=" + ctlSrv.URL, "sw=" + swSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	agg.PollOnce()

	tr, ok := agg.Trace(5)
	if !ok || !tr.Complete {
		t.Fatalf("no complete stitched trace for txn 5: %+v", tr)
	}
	var names []string
	for _, sg := range tr.Stages {
		names = append(names, sg.Name)
	}
	if got := strings.Join(names, ","); got != "commit,monitor,delta,push,write,switch-applied" {
		t.Fatalf("stage order = %s, want the causal order", got)
	}
	w, applied := tr.Stages[4], tr.Stages[5]
	if w.Device != "sw0" || w.Attrs["updates"] != 4 || applied.Start.Before(w.Start) {
		t.Fatalf("write %+v, apply %+v: want the device's write, then the apply", w, applied)
	}
	if text := TraceText(tr); !strings.Contains(text, "device=sw0 updates=4") {
		t.Fatalf("text view does not name the written device:\n%s", text)
	}
}

// TestAggregatorHotRules drives two profiled members and checks the
// fleet-wide merge: summed EWMA costs rank rules across the
// deployment, the per-member "other" rollups combine, and the one-shot
// text view renders the table.
func TestAggregatorHotRules(t *testing.T) {
	a, aSrv := memberServer(t, "controller", "ctl0")
	b, bSrv := memberServer(t, "controller", "ctl1")

	a.Prof().ObserveTxn([]obs.RuleSample{
		{ID: "Hot#0", Label: "Hot(a,c) :- In(a,b), In(c,b).", EvalNs: 8_000_000, Derivations: 1000, DeltaTuples: 400},
		{ID: "Cheap#0", EvalNs: 100_000, Derivations: 10, DeltaTuples: 10},
	})
	b.Prof().ObserveTxn([]obs.RuleSample{
		{ID: "Hot#0", EvalNs: 2_000_000, Derivations: 300, DeltaTuples: 100},
		{ID: "Cheap#0", EvalNs: 5_000_000, Derivations: 20, DeltaTuples: 20},
	})

	agg, err := New(Config{Targets: []string{"a=" + aSrv.URL, "b=" + bSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	agg.PollOnce()

	hr := agg.Status().HotRules
	if hr.Members != 2 {
		t.Fatalf("hot rules from %d members, want 2: %+v", hr.Members, hr)
	}
	if len(hr.Rules) != 2 || hr.Rules[0].ID != "Hot#0" || hr.Rules[1].ID != "Cheap#0" {
		t.Fatalf("fleet ranking wrong: %+v", hr.Rules)
	}
	hot := hr.Rules[0]
	if hot.Members != 2 || hot.Derivations != 1300 || hot.DeltaTuples != 500 {
		t.Fatalf("merged Hot#0 = %+v", hot)
	}
	if hot.EwmaNs < 9_000_000 || hot.TopMember != "ctl0" {
		t.Fatalf("Hot#0 ewma/top member wrong: %+v", hot)
	}
	// Cheap#0 is hottest on ctl1 even though Hot#0 dominates fleet-wide.
	if hr.Rules[1].TopMember != "ctl1" {
		t.Fatalf("Cheap#0 top member = %q, want ctl1", hr.Rules[1].TopMember)
	}
	if hot.Share <= hr.Rules[1].Share || hot.Share <= 0 {
		t.Fatalf("shares wrong: %+v", hr.Rules)
	}
	if hot.Label == "" {
		t.Fatalf("label lost in merge: %+v", hot)
	}

	text := agg.Status().Text()
	for _, want := range []string{"hot rules", "Hot#0", "ctl0"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text rendering missing %q:\n%s", want, text)
		}
	}
}

// TestAggregatorRuleLimitRollsUp checks the fleet-level top-K cut: rules
// beyond the bound fold into the "other" bucket together with the
// members' own rollups.
func TestAggregatorRuleLimitRollsUp(t *testing.T) {
	m, mSrv := memberServer(t, "controller", "ctl0")
	var samples []obs.RuleSample
	for i := 0; i < 6; i++ {
		samples = append(samples, obs.RuleSample{
			ID:     "R" + strconv.Itoa(i) + "#0",
			EvalNs: int64((i + 1) * 1000),
		})
	}
	m.Prof().ObserveTxn(samples)

	agg, err := New(Config{Targets: []string{"m=" + mSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	agg.ruleLimit = 2
	agg.PollOnce()
	hr := agg.Status().HotRules
	if len(hr.Rules) != 2 || hr.Rules[0].ID != "R5#0" {
		t.Fatalf("limited table = %+v", hr.Rules)
	}
	if hr.Other == nil || hr.Other.Count != 4 {
		t.Fatalf("other rollup = %+v, want 4 rules", hr.Other)
	}
}

// TestAggregatorMemberWithoutClockHeaders fakes a member that serves
// traces but stamps no X-Obs-* headers at all (no identity, no clock
// anchors). Skew estimation must degrade to uncorrected timestamps —
// zero offset, never NaN — and stitching must still fuse the member's
// stages into complete timelines.
func TestAggregatorMemberWithoutClockHeaders(t *testing.T) {
	t0 := time.Now().Add(-time.Second)

	db, dbSrv := memberServer(t, "ovsdb", "db0")
	db.Tr().Record(11, "ovsdb", stage(obs.StageCommit, t0, time.Millisecond))
	db.Tr().Record(11, "ovsdb", stage("monitor", t0.Add(time.Millisecond), time.Millisecond))
	db.Tr().Record(11, "ovsdb", stage("delta", t0.Add(2*time.Millisecond), time.Millisecond))
	db.Tr().Record(11, "ovsdb", stage("push", t0.Add(3*time.Millisecond), time.Millisecond))

	// A bare member: correct JSON bodies, no obs headers whatsoever.
	swMux := http.NewServeMux()
	swMux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ready\n"))
	})
	swMux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		tr := obs.Trace{TxnID: 11, Source: "p4rt", Stages: []obs.Stage{
			stage(obs.StageSwitchApplied, t0.Add(4*time.Millisecond), time.Millisecond),
		}}
		json.NewEncoder(w).Encode(struct {
			Traces []obs.Trace `json:"traces"`
		}{[]obs.Trace{tr}})
	})
	swSrv := httptest.NewServer(swMux)
	defer swSrv.Close()

	agg, err := New(Config{Targets: []string{"db=" + dbSrv.URL, "sw=" + swSrv.URL}})
	if err != nil {
		t.Fatal(err)
	}
	agg.PollOnce()

	st := agg.Status()
	for _, m := range st.Members {
		if m.Health != HealthUp {
			t.Fatalf("member %s health = %s, want up", m.Name, m.Health)
		}
		if m.SkewNs != m.SkewNs || float64(m.SkewNs) != float64(m.SkewNs) { // NaN guard
			t.Fatalf("member %s skew is NaN", m.Name)
		}
		if m.Name == "sw" && m.SkewNs != 0 {
			t.Fatalf("headerless member skew = %d, want 0 (uncorrected)", m.SkewNs)
		}
	}

	tr, ok := agg.Trace(11)
	if !ok {
		t.Fatal("no stitched trace for txn 11")
	}
	if !tr.Complete || len(tr.Stages) != 5 {
		t.Fatalf("stitching degraded: %+v", tr)
	}
	// Uncorrected timestamps: the stage times pass through unchanged, so
	// the convergence still reads ~5ms off the shared test clock.
	if got := time.Duration(tr.ConvergenceNs); got < 4*time.Millisecond || got > time.Second {
		t.Fatalf("uncorrected convergence = %v, want ~5ms", got)
	}
	// The headerless member keeps its configured label (no identity to
	// override it) and the trace attributes its stage to that label.
	if tr.Stages[len(tr.Stages)-1].Member != "sw" {
		t.Fatalf("stage attribution = %+v, want configured name sw", tr.Stages)
	}

	// The metrics view renders a finite skew for the headerless member.
	if text := get2f(t, agg, "/fleet/metrics"); !strings.Contains(text, `fleet_member_skew_seconds{member="sw"} 0`) {
		t.Fatalf("expected zero skew gauge for headerless member:\n%s", text)
	}
}

// get2f fetches one aggregator endpoint through a throwaway server.
func get2f(t *testing.T, a *Aggregator, path string) string {
	t.Helper()
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
