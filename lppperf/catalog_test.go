package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json, which declares
// the benchmark to its runners, and the catalog the program reports in
// agreement: same workloads and rationales, same metrics and units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	type entry struct{ Name, Unit, Why string }
	var decl struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), implemented %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		decl []entry
		cat  []catalogEntry
	}{{decl.EndToEnd, endToEnd}, {decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.cat) {
			t.Fatalf("%d metrics declared, %d in the catalog", len(c.decl), len(c.cat))
		}
		for i, m := range c.decl {
			if m.Name != c.cat[i].name || m.Unit != c.cat[i].unit {
				t.Errorf("metric %d: declared %s [%s], catalog %s [%s]", i, m.Name, m.Unit, c.cat[i].name, c.cat[i].unit)
			}
		}
	}
}
