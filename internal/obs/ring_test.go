package obs

import (
	"math/rand"
	"sort"
	"testing"
)

// TestShardedMergeMatchesStableSort pins the k-way merge to the exact
// semantics of the implementation it replaced: a stable sort by T over
// the shards concatenated in index order. Cross-shard ties must come
// out lower-shard-first, and each shard's emission order must survive.
func TestShardedMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 50; trial++ {
		shards := 1 + rng.Intn(6)
		s := NewSharded(shards, 512)
		var task uint64
		for i := 0; i < shards; i++ {
			n := rng.Intn(40)
			var now int64
			for j := 0; j < n; j++ {
				// Small steps with many zero increments force plenty of
				// equal-T events, both within and across shards.
				now += int64(rng.Intn(3))
				task++
				s.Shard(i).Emit(Event{T: now, Task: task, Core: int32(i), Kind: Arrive})
			}
		}

		want := make([]Event, 0)
		for i := 0; i < shards; i++ {
			want = append(want, s.Shard(i).Events()...)
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].T < want[b].T })

		got := s.Events()
		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d events, want %d", trial, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("trial %d: merge diverges from stable sort at %d: got %+v want %+v",
					trial, k, got[k], want[k])
			}
		}
	}
}

func TestShardedEventsEmptyShards(t *testing.T) {
	s := NewSharded(4, 8)
	if got := s.Events(); len(got) != 0 {
		t.Fatalf("empty sharded recorder merged %d events", len(got))
	}
	s.Shard(2).Emit(Event{T: 7, Task: 1})
	got := s.Events()
	if len(got) != 1 || got[0].Task != 1 {
		t.Fatalf("single-shard merge wrong: %+v", got)
	}
}

// TestLockedParity drives a Locked and a bare Ring with the same
// operations and checks every read-side accessor agrees — Locked is a
// mutex around Ring and nothing more.
func TestLockedParity(t *testing.T) {
	l := NewLocked(4)
	r := NewRing(4)
	for task := uint64(1); task <= 6; task++ { // two over cap: discarded
		e := Event{T: int64(task), Task: task}
		l.Emit(e)
		r.Emit(e)
	}

	if l.Len() != r.Len() {
		t.Fatalf("Len: locked %d, ring %d", l.Len(), r.Len())
	}
	if l.Discarded() != r.Discarded() {
		t.Fatalf("Discarded: locked %d, ring %d", l.Discarded(), r.Discarded())
	}
	if l.Truncated() != r.Truncated() {
		t.Fatalf("Truncated: locked %v, ring %v", l.Truncated(), r.Truncated())
	}
	le, re := l.Events(), r.Events()
	if len(le) != len(re) {
		t.Fatalf("Events: locked %d, ring %d", len(le), len(re))
	}
	for i := range le {
		if le[i] != re[i] {
			t.Fatalf("Events diverge at %d: %+v vs %+v", i, le[i], re[i])
		}
	}

	l.Reset()
	r.Reset()
	if l.Len() != 0 || l.Discarded() != 0 || l.Truncated() {
		t.Fatal("locked Reset did not clear")
	}
	l.Emit(Event{T: 9})
	if l.Len() != 1 {
		t.Fatal("locked recorder unusable after Reset")
	}
}
