package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// The workload golden fixtures pin the default arrival path's exact
// per-seed numbers across the whole catalogue: every registry entry ×
// every Table 1 workload under open-loop Poisson arrivals. They were
// recorded immediately before the workload plane refactor (the split of
// workload.Generator into ArrivalProcess × ServiceSampler composed by
// workload.Spec), so any drift in the default path — one extra RNG
// draw, a reordered sample, a changed float — fails this test even
// though the programmable axes are new. Regenerate only for a
// deliberate semantic change:
//
//	go test ./internal/cluster -run TestGoldenWorkloadEquivalence -update
const goldenWorkloadsPath = "testdata/golden_workloads.json"

// goldenWorkloadConfig is the one fixture configuration per workload: a
// mid-load 16-core run, short enough that the full 19-entry × 6-workload
// cross stays test-suite fast.
func goldenWorkloadConfig(w *workload.Workload) RunConfig {
	return RunConfig{
		Workload: w,
		Rate:     0.6 * w.MaxLoad(16),
		Duration: 4 * sim.Millisecond,
		Warmup:   400 * sim.Microsecond,
		Seed:     0xBEEF,
	}
}

// TestGoldenWorkloadEquivalence asserts that every registry machine
// still produces bit-identical Results for default Poisson arrivals on
// every Table 1 workload — the proof that the workload plane refactor
// changed no default number anywhere in the catalogue.
func TestGoldenWorkloadEquivalence(t *testing.T) {
	got := map[string]map[string]goldenSummary{}
	for _, w := range workload.All() {
		cfg := goldenWorkloadConfig(w)
		got[w.Name] = map[string]goldenSummary{}
		for _, name := range Names() {
			got[w.Name][name] = summarize(MustLookup(name).Build(Options{}).Run(cfg))
		}
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenWorkloadsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWorkloadsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenWorkloadsPath)
		return
	}

	buf, err := os.ReadFile(goldenWorkloadsPath)
	if err != nil {
		t.Fatalf("read fixtures (run with -update to record them): %v", err)
	}
	want := map[string]map[string]goldenSummary{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenWorkloadsPath, err)
	}

	for wName := range want {
		for key, w := range want[wName] {
			g, ok := got[wName][key]
			if !ok {
				t.Errorf("%s/%s: machine missing from registry", wName, key)
				continue
			}
			compareGolden(t, wName+"/"+key, w, g)
		}
		var missing []string
		for key := range got[wName] {
			if _, ok := want[wName][key]; !ok {
				missing = append(missing, key)
			}
		}
		sort.Strings(missing)
		for _, key := range missing {
			t.Errorf("%s/%s: no fixture recorded; rerun with -update", wName, key)
		}
	}
}
