package bench

import "testing"

func TestRunLabelingDenseSmall(t *testing.T) {
	res, err := RunLabelingDense(40, 100, 8)
	if err != nil {
		t.Fatalf("RunLabelingDense: %v", err)
	}
	if res.Topology != "dense-cyclic" {
		t.Errorf("topology = %q", res.Topology)
	}
	if res.IncrPerChange <= 0 || res.RecomputePC <= 0 {
		t.Errorf("non-positive timings: %+v", res)
	}
	if res.Rounds != labelDenseRounds || res.IncrIQR < 0 || res.RecomputeIQR < 0 {
		t.Errorf("rounds not reported: %+v", res)
	}
	if res.String() == "" {
		t.Error("empty render")
	}
}
