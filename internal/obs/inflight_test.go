package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestInflightChurn pushes a million arrive/leave pairs through a table
// that never holds more than 64 tasks and checks every answer against a
// map. Half the ids are drawn from a pool that shares one home slot, so
// probe runs are long and backward-shift deletion is exercised on every
// take; live ids re-arrive (the instant is overwritten, as the map
// does); absent ids are taken. With no tombstones the table must end
// the run no larger than 64 live entries ever needed.
func TestInflightChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var probe inflight
	probe.put(0, 0) // allocate, to learn the first table's hash
	var colliding []uint64
	for id := uint64(1); len(colliding) < 256; id++ {
		if probe.home(id) == 7 {
			colliding = append(colliding, id)
		}
	}
	nextID := func() uint64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Uint64()
		case 1:
			return uint64(rng.Intn(8)) // includes 0, the empty slot's value
		default:
			return colliding[rng.Intn(len(colliding))]
		}
	}

	var tab inflight
	ref := map[uint64]int64{}
	var live []uint64
	for op := int64(0); op < 1_000_000; op++ {
		if len(live) < 64 && (len(live) == 0 || rng.Intn(2) == 0) {
			id := nextID()
			if _, present := ref[id]; !present {
				live = append(live, id)
			}
			tab.put(id, op)
			ref[id] = op
		} else {
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			at, ok := tab.take(id)
			if want := ref[id]; !ok || at != want {
				t.Fatalf("op %d: take(%d) = %d, %v; want %d, true", op, id, at, ok, want)
			}
			delete(ref, id)
		}
		if absent := nextID(); rng.Intn(8) == 0 {
			if _, present := ref[absent]; !present {
				if at, ok := tab.take(absent); ok {
					t.Fatalf("op %d: take(%d) of an absent task returned %d", op, absent, at)
				}
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("op %d: table holds %d tasks, map %d", op, tab.n, len(ref))
		}
	}
	if len(tab.slots) > 128 {
		t.Fatalf("table grew to %d slots holding at most 64 tasks: deletions leave residue", len(tab.slots))
	}
	for id, want := range ref {
		if at, ok := tab.take(id); !ok || at != want {
			t.Fatalf("drain: take(%d) = %d, %v; want %d, true", id, at, ok, want)
		}
	}
	for i, s := range tab.slots {
		if s.used {
			t.Fatalf("slot %d still in use after every task was taken", i)
		}
	}
}

// TestInflightGrows: more live tasks than the first table holds.
func TestInflightGrows(t *testing.T) {
	var tab inflight
	const n = 5000
	for id := uint64(0); id < n; id++ {
		tab.put(id*id, int64(id))
	}
	if tab.n != n {
		t.Fatalf("table holds %d tasks, want %d", tab.n, n)
	}
	for id := uint64(0); id < n; id++ {
		if at, ok := tab.take(id * id); !ok || at != int64(id) {
			t.Fatalf("take(%d) = %d, %v", id*id, at, ok)
		}
	}
}

// TestReadSideArbitraryTaskIDs reruns the differential check against
// the map-based originals with task ids spread over all of uint64, as a
// file may carry them (randomTimeline's are small and sequential).
func TestReadSideArbitraryTaskIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		events := randomTimeline(rng, []int32{0, 1, 2, 3}, 40+rng.Intn(2000))
		for i := range events {
			events[i].Task = events[i].Task*0xD6E8FEB86659FD93 ^ uint64(trial)<<60
		}
		if got, want := Summarize("x", events), summarizeRef("x", events); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Summarize differs from the original (tasks %d/%d, max occupancy %d/%d, sojourns %d/%d)", trial,
				got.Tasks, want.Tasks, got.MaxOccupancy, want.MaxOccupancy, got.Sojourn.Len(), want.Sojourn.Len())
		}
		width := int64(1 + rng.Intn(2000))
		if got, want := Windows(events, width), windowsRef(events, width); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Windows(width %d) differs from the original", trial, width)
		}
	}
}
