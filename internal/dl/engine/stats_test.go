package engine

import "testing"

func TestCollectStatsOff(t *testing.T) {
	rt := newRT(t, projSrc)
	apply(t, rt, Insert("In", strRec("x", "y")))
	if rt.LastApplyStats() != nil {
		t.Fatalf("stats collected with Collect unset")
	}
}

func TestCollectStats(t *testing.T) {
	rt, err := New(compile(t, projSrc), Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	apply(t, rt, Insert("In", strRec("x", "y")))
	st := rt.LastApplyStats()
	if st == nil {
		t.Fatalf("no stats with Collect set")
	}
	if len(st.Strata) != rt.NumStrata() {
		t.Fatalf("stats cover %d strata, runtime has %d", len(st.Strata), rt.NumStrata())
	}
	if st.DeltaSize != 1 {
		t.Fatalf("DeltaSize = %d, want 1", st.DeltaSize)
	}
	if st.Derivations < 1 {
		t.Fatalf("Derivations = %d, want >= 1", st.Derivations)
	}
}
