package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTinyRuns runs every workload untraced and traced on alu2-sized
// inputs and checks that each passes its correctness gate and reports
// exactly the metrics BENCHMARK.json lists, with their units, in the
// summary line the regression pipeline reads.
func TestTinyRuns(t *testing.T) {
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				seconds := 0.3
				if w == wService {
					seconds = 2
				}
				cfg := runConfig{workload: w, seed: 1, seconds: seconds, trace: traced, dir: t.TempDir(), sc: tinyScale, log: io.Discard}
				var out bytes.Buffer
				ok, err := benchmark(cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				rec := readRecord(t, cfg)
				for _, c := range rec.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if !ok {
					t.Fatalf("correctness gate failed: %d of %d operations failed", rec.Failed, rec.Attempted)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var line summaryLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
					t.Fatalf("last line is not the summary: %v", err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("summary has %d metrics, want %d", len(line.Metrics), len(want))
				}
				for _, def := range want {
					m, ok := line.Metrics[def.Name]
					if !ok {
						t.Errorf("metric %s missing", def.Name)
						continue
					}
					if m.Unit != def.Unit {
						t.Errorf("metric %s has unit %q, want %q", def.Name, m.Unit, def.Unit)
					}
				}
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("summary line %+v", line)
				}
				if traced {
					if _, err := os.Stat(filepath.Join(cfg.dir, w+"-seed1-trace1.trace.json")); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

func readRecord(t *testing.T, cfg runConfig) runRecord {
	t.Helper()
	name := filepath.Join(cfg.dir, cfg.workload+"-seed1-trace0.record.json")
	if cfg.trace {
		name = strings.Replace(name, "trace0", "trace1", 1)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var rec runRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	return rec
}
