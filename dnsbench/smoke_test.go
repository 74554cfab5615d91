package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, list := range []struct {
		name string
		file []struct{ Name, Unit string }
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(list.file) != len(list.code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", list.name, len(list.file), len(list.code))
		}
		for i, m := range list.file {
			if m.Name != list.code[i].name || m.Unit != list.code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					list.name, i, m.Name, m.Unit, list.code[i].name, list.code[i].unit)
			}
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not run", w.Name)
		}
	}
}

// TestSmokeEveryWorkload runs every workload for a moment, untraced and
// traced, and requires a correct result line carrying every metric of
// BENCHMARK.json with its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			rc := runConfig{seed: 3, seconds: 0.5, traced: traced, scratch: t.TempDir()}
			if traced {
				rc.spans = newSpans()
			}
			res, err := workloads[w.Name](rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var out bytes.Buffer
			if err := printResult(&out, res, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", w.Name, traced, err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}
