package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesRegistry checks BENCHMARK.json's shape and
// that it lists exactly the workloads and metrics this command runs
// and reports, and that every per-layer metric's prediction names an
// end-to-end metric and workloads that exist.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	var gotKeys []string
	for k := range keys {
		gotKeys = append(gotKeys, k)
	}
	sort.Strings(gotKeys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(gotKeys, want) {
		t.Fatalf("keys %v", gotKeys)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if !reflect.DeepEqual(bf.Paths, []string{"cmd/sstabench"}) {
		t.Errorf("paths %v", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	var workloads []string
	isWorkload := make(map[string]bool)
	for _, w := range bf.Workloads {
		workloads = append(workloads, w.Name)
		isWorkload[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	sort.Strings(workloads)
	if !reflect.DeepEqual(workloads, workloadNames()) {
		t.Errorf("workloads %v, command runs %v", workloads, workloadNames())
	}

	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(bf.EndToEnd), len(bf.PerLayer))
	}
	seen := make(map[string]bool)
	e2e := make(map[string]bool)
	for i, m := range bf.EndToEnd {
		e2e[m.Name] = true
		if i >= len(endToEnd) || endToEnd[i] != (metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}) {
			t.Errorf("end_to_end[%d] = %+v does not match the registry", i, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the registry %d", len(bf.EndToEnd), len(endToEnd))
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s is %+v", m)
			}
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	for i, m := range bf.PerLayer {
		if i >= len(perLayer) || perLayer[i].Name != m.Name || perLayer[i].Unit != m.Unit || perLayer[i].Better != m.Better {
			t.Errorf("per_layer[%d] = %+v does not match the registry", i, m)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the registry %d", len(bf.PerLayer), len(perLayer))
	}

	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w) {
			t.Errorf("workload name %q is malformed", w)
		}
	}
	for _, m := range perLayer {
		if m.Moves != "none" && !e2e[m.Moves] {
			t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, m.Moves)
		}
		if !isWorkload[m.Heavy] || (m.Light != "" && !isWorkload[m.Light]) || m.Heavy == m.Light {
			t.Errorf("%s: heavy on %q, light on %q", m.Name, m.Heavy, m.Light)
		}
	}
}
