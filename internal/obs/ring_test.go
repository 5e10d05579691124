package obs

import "testing"

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
