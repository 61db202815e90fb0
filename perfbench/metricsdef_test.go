package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestDeclaredMetrics checks that BENCHMARK.json at the repository
// root declares exactly the metrics, with the units, the program
// reports.
func TestDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []decl, want map[string]string) {
		seen := make(map[string]bool)
		for _, d := range declared {
			if seen[d.Name] {
				t.Errorf("%s metric %s declared twice", kind, d.Name)
			}
			seen[d.Name] = true
			if u, ok := want[d.Name]; !ok {
				t.Errorf("%s metric %s is declared but never reported", kind, d.Name)
			} else if u != d.Unit {
				t.Errorf("%s metric %s: declared unit %q, reported %q", kind, d.Name, d.Unit, u)
			}
		}
		for n := range want {
			if !seen[n] {
				t.Errorf("%s metric %s is reported but not declared", kind, n)
			}
		}
	}
	compare("end-to-end", b.EndToEnd, endToEnd)
	compare("per-layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloads[i].name)
		}
	}
}
