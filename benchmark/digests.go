package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/cluster"
)

// runDigest pins one Machine.Run's simulated statistics: the counters
// exactly, and each class's median and p99.9 sojourn.
type runDigest struct {
	// Key names the run within its workload ("tq", or
	// "<workload>/<system>/<rate index>" inside fig7-sweep).
	Key       string        `json:"key"`
	Events    uint64        `json:"events"`
	Offered   uint64        `json:"offered"`
	Completed uint64        `json:"completed"`
	Dropped   uint64        `json:"dropped"`
	Classes   []classDigest `json:"classes"`
}

type classDigest struct {
	Name   string  `json:"name"`
	Count  uint64  `json:"count"`
	P50Ns  float64 `json:"p50_ns"`
	P999Ns float64 `json:"p999_ns"`
}

// digestOf reads a Result out. The percentile calls sort each class's
// samples, so this is the read-out cost a user of the Result pays.
func digestOf(key string, r *cluster.Result) runDigest {
	d := runDigest{Key: key, Events: r.Events, Offered: r.Offered, Completed: r.Completed, Dropped: r.Dropped}
	for _, c := range r.PerClass {
		cd := classDigest{Name: c.Name, Count: c.Count}
		if c.Count > 0 {
			cd.P50Ns, cd.P999Ns = c.Sojourn.Median(), c.Sojourn.P999()
		}
		d.Classes = append(d.Classes, cd)
	}
	return d
}

// String is the one-line form a repeat formats, as a CLI would print.
func (d runDigest) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s events=%d offered=%d completed=%d dropped=%d", d.Key, d.Events, d.Offered, d.Completed, d.Dropped)
	for _, c := range d.Classes {
		fmt.Fprintf(&b, " %s[n=%d p50=%.0fns p99.9=%.0fns]", c.Name, c.Count, c.P50Ns, c.P999Ns)
	}
	return b.String()
}

// conserved is the simulator's conservation law.
func (d runDigest) conserved() bool { return d.Offered == d.Completed+d.Dropped }

// percentileTolerance is how far a pinned percentile may drift: wide
// enough that a bounded-error histogram replacing the exact sample
// passes, far too narrow for a behaviour change.
const percentileTolerance = 0.01

// matches compares a digest against its pin: counters exactly,
// percentiles within percentileTolerance. exactPercentiles tightens
// the second to equality (repeats of one run in one process).
func (d runDigest) matches(pin runDigest, exactPercentiles bool) error {
	if d.Key != pin.Key {
		return fmt.Errorf("run %q where %q was expected", d.Key, pin.Key)
	}
	if d.Events != pin.Events || d.Offered != pin.Offered || d.Completed != pin.Completed || d.Dropped != pin.Dropped {
		return fmt.Errorf("%s: events/offered/completed/dropped %d/%d/%d/%d, want %d/%d/%d/%d",
			d.Key, d.Events, d.Offered, d.Completed, d.Dropped, pin.Events, pin.Offered, pin.Completed, pin.Dropped)
	}
	if len(d.Classes) != len(pin.Classes) {
		return fmt.Errorf("%s: %d classes, want %d", d.Key, len(d.Classes), len(pin.Classes))
	}
	tol := percentileTolerance
	if exactPercentiles {
		tol = 0
	}
	for i, c := range d.Classes {
		p := pin.Classes[i]
		if c.Name != p.Name || c.Count != p.Count {
			return fmt.Errorf("%s: class %s n=%d, want %s n=%d", d.Key, c.Name, c.Count, p.Name, p.Count)
		}
		if !within(c.P50Ns, p.P50Ns, tol) || !within(c.P999Ns, p.P999Ns, tol) {
			return fmt.Errorf("%s: class %s p50/p99.9 %.0f/%.0f ns, want %.0f/%.0f ns within %.0f%%",
				d.Key, c.Name, c.P50Ns, c.P999Ns, p.P50Ns, p.P999Ns, 100*tol)
		}
	}
	return nil
}

func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// matchAll compares a repeat's digests against a pinned list.
func matchAll(got, pins []runDigest, exactPercentiles bool) error {
	if len(got) != len(pins) {
		return fmt.Errorf("%d runs, want %d", len(got), len(pins))
	}
	for i := range got {
		if err := got[i].matches(pins[i], exactPercentiles); err != nil {
			return err
		}
	}
	return nil
}

// pinnedSeed is the seed testdata/digests.json was recorded with. Other
// seeds are checked for conservation and repeat-to-repeat determinism
// only.
const pinnedSeed = 1

// pinFile is testdata/digests.json: per size ("full", "quick"), per sim
// workload, the digests of one repeat at pinnedSeed.
type pinFile struct {
	Seed uint64                            `json:"seed"`
	Pins map[string]map[string][]runDigest `json:"pins"`
}

//go:embed testdata/digests.json
var pinnedJSON []byte

func sizeName(quick bool) string {
	if quick {
		return "quick"
	}
	return "full"
}

// pinned returns the recorded digests for a workload, or nil when the
// seed is not the pinned one or the workload has none (live-kv).
func pinned(workload string, seed uint64, quick bool) ([]runDigest, error) {
	if seed != pinnedSeed {
		return nil, nil
	}
	var f pinFile
	if err := json.Unmarshal(pinnedJSON, &f); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return f.Pins[sizeName(quick)][workload], nil
}

// recordDigests regenerates testdata/digests.json by running one repeat
// of every sim workload at both sizes. Run it from the repository root
// after a deliberate behaviour change, and review the diff.
func recordDigests(path string) error {
	f := pinFile{Seed: pinnedSeed, Pins: map[string]map[string][]runDigest{}}
	for _, quick := range []bool{false, true} {
		f.Pins[sizeName(quick)] = map[string][]runDigest{}
		for _, w := range workloads {
			j, err := w.setup(pinnedSeed, quick)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			out, err := j.run(nil)
			j.close()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if len(out.digests) > 0 {
				f.Pins[sizeName(quick)][w.name] = out.digests
			}
			fmt.Printf("recorded %s (%s): %d runs\n", w.name, sizeName(quick), len(out.digests))
		}
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
