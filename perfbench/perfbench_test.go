package main

import (
	"math"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload briefly in trace mode, which runs
// untraced and traced rounds alike with every output check on.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range []string{"pipeline", "serve", "graphs_rw"} {
		t.Run(w, func(t *testing.T) {
			r := newRunner(w, 3, 50*time.Millisecond, true, t.TempDir())
			r.setups = 1
			if err := workloads[w](r); err != nil {
				t.Fatal(err)
			}
			layers := r.report()
			if !layers.Correct || layers.Failed != 0 || layers.Attempted == 0 {
				t.Fatalf("attempted %d failed %d correct %t", layers.Attempted, layers.Failed, layers.Correct)
			}
			for _, name := range perLayerNames() {
				if _, ok := layers.Metrics[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			r.traced = false
			e2e := r.report()
			for _, m := range endToEnd {
				if v := e2e.Metrics[m.name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.name, v)
				}
			}
			if w != "pipeline" {
				return
			}
			sum := layers.Metrics["core.unattributed.ms_per_op"].Value
			for _, ph := range corePhases {
				sum += layers.Metrics[coreName(ph)+".ms_per_op"].Value
			}
			if op := layers.Metrics["core.op.ms_per_op"].Value; math.Abs(sum-op) > 1e-6*op {
				t.Errorf("phases + unattributed = %v ms, op latency %v ms", sum, op)
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
