package obs

// inflight maps the tasks currently in the system to their arrival
// instants — the one per-task state Summarize and Windows keep. A
// timeline inserts and removes every task it records (millions) but
// holds only the run's occupancy at once (tens), so the table is a small
// open-addressed array that stays cache-resident instead of a Go map:
// linear probing from a multiplicative hash, removal by backward shift —
// no tombstones, so churn never fills or grows it — and doubling at 3/4
// load. Task ids arrive from files: any uint64 is a valid key. The zero
// value is empty and ready to use.
type inflight struct {
	slots []inflightSlot // length a power of two, or nil
	shift uint           // 64 - log2(len(slots)): a hash's top bits index slots
	n     int            // slots in use
}

type inflightSlot struct {
	task uint64
	at   int64
	used bool
}

// inflightMinBits sizes the table's first allocation: 64 slots.
const inflightMinBits = 6

// home is the slot a task's probe sequence starts at (Fibonacci
// hashing: sequential ids, the common case, spread evenly).
func (t *inflight) home(task uint64) int {
	return int(task * 0x9E3779B97F4A7C15 >> t.shift)
}

// put records task's arrival at instant at; a task already present has
// its instant overwritten, as a map assignment would.
func (t *inflight) put(task uint64, at int64) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(task)
	for t.slots[i].used && t.slots[i].task != task {
		i = (i + 1) & mask
	}
	if !t.slots[i].used {
		t.n++
	}
	t.slots[i] = inflightSlot{task, at, true}
}

// take removes task and returns its arrival instant, or false if it is
// not in the table.
func (t *inflight) take(task uint64) (at int64, ok bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	i := t.home(task)
	for t.slots[i].task != task {
		if !t.slots[i].used {
			return 0, false
		}
		i = (i + 1) & mask
	}
	if !t.slots[i].used {
		return 0, false // task 0 matched an empty slot's zero value
	}
	at = t.slots[i].at
	// Close the gap: an entry further along the run moves back into it
	// unless that would put it before its own home slot.
	for j := (i + 1) & mask; t.slots[j].used; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].task))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = inflightSlot{}
	t.n--
	return at, true
}

// grow doubles the table and reinserts every entry.
func (t *inflight) grow() {
	old := t.slots
	if len(old) == 0 {
		t.shift = 64 - inflightMinBits
	} else {
		t.shift--
	}
	t.slots, t.n = make([]inflightSlot, 1<<(64-t.shift)), 0
	for _, s := range old {
		if s.used {
			t.put(s.task, s.at)
		}
	}
}
