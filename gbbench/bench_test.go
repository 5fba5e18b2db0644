package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// tinySizes keeps every workload to a second or two.
var tinySizes = sizes{
	consumers: 16, providers: 16, setups: 2,
	rate: 100, outstanding: 8,
	round: 64, usageBatch: 16, chains: 4, claimTicks: 16, chainLen: 1024, bgRate: 20,
	restartAccounts: 300, restartTransfers: 200, pendingCharges: 64, pendingClaims: 32, sample: 16,
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, layerDefs())

	raw, err = os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Interactive struct {
			Rate float64 `json:"phase1_open_loop_ops_per_s"`
		}
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Interactive.Rate != fullSizes.rate {
		t.Errorf("spec.json records %v ops/s, the program runs %v", rec.Interactive.Rate, fullSizes.rate)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	gen := func() *interactive {
		w := newInteractive(5, tinySizes, t.TempDir(), nil, nodeUnderTest("interactive", false)).(*interactive)
		t.Cleanup(w.close)
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if err := w.generate(time.Second); err != nil {
			t.Fatal(err)
		}
		return w
	}
	a, b := gen(), gen()
	if !reflect.DeepEqual(a.pop, b.pop) {
		t.Error("same seed placed accounts differently")
	}
	if !reflect.DeepEqual(a.phase1, b.phase1) || !reflect.DeepEqual(a.phase2, b.phase2) {
		t.Error("same seed generated different interactive operations")
	}

	genS := func() *settlement {
		w := newSettlement(5, tinySizes, t.TempDir(), nil, nodeUnderTest("settlement", false)).(*settlement)
		t.Cleanup(w.close)
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		if err := w.generate(time.Second); err != nil {
			t.Fatal(err)
		}
		return w
	}
	c, d := genS(), genS()
	if !reflect.DeepEqual(c.rounds, d.rounds) || !reflect.DeepEqual(c.bg, d.bg) {
		t.Error("same seed generated different settlement inputs")
	}
}

// TestExactCountsRepeat runs every workload twice untraced and once
// traced with one seed: the exact counts must agree across all three.
func TestExactCountsRepeat(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			var runs []map[string]float64
			for i := 0; i < 2; i++ {
				out, err := bench(name, 3, time.Second, false, t.TempDir(), tinySizes)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.failures) > 0 {
					t.Fatalf("checks failed: %v", out.failures)
				}
				runs = append(runs, out.exact)
			}
			out, err := bench(name, 3, 2*time.Second, true, t.TempDir(), tinySizes)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.failures) > 0 {
				t.Fatalf("traced checks failed: %v", out.failures)
			}
			runs = append(runs, out.report["exact_untraced"].(map[string]float64), out.exact)
			if len(runs[0]) == 0 {
				t.Fatal("no exact counts recorded")
			}
			for i, r := range runs[1:] {
				if !reflect.DeepEqual(r, runs[0]) {
					t.Errorf("run %d counted %v, run 0 %v", i+1, r, runs[0])
				}
			}
			if len(out.metrics) != len(layerDefs()) {
				t.Errorf("traced run printed %d metrics, want %d", len(out.metrics), len(layerDefs()))
			}
		})
	}
}
