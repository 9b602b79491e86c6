package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{
	solidCells:  4,
	solidSnaps:  20,
	liquidAtoms: 100,
	liquidSnaps: 60,
	daemonAtoms: 50,
	daemonSnaps: 20,
	daemonPool:  2,
	setups:      1,
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs each workload untraced and traced at tiny size and checks
// that every metric BENCHMARK.json names is printed, with its unit and a
// finite value (positive, for the end-to-end metrics), that no operation
// failed, and that the unattributed remainder of every single-client path
// is not negative.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	t.Setenv("CARGO_TARGET_DIR", t.TempDir())
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			r := &run{workload: w.Name, seed: 3, seconds: 0.2, traced: traced, sz: tinySizes}
			res, err := r.execute()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %s",
					w.Name, traced, res.Failed, res.Attempted, r.chk.firstFailure)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s in %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || (!traced && got.Value <= 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, m.Name, got.Value)
				case traced && strings.HasSuffix(m.Name, ".unattributed_ns_per_value") &&
					!strings.HasPrefix(m.Name, "session.") && got.Value < 0:
					t.Errorf("%s: %s = %v, want >= 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
