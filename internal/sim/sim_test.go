package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRunsInTimestampOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, at := range []Time{30, 10, 20, 5, 25} {
		at := at
		e.At(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{5, 10, 20, 25, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d ran at %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := New()
	var fired Time = -1
	e.At(50, func() {
		e.After(25, func() { fired = e.Now() })
	})
	e.Run()
	if fired != 75 {
		t.Fatalf("After fired at %d, want 75", fired)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestHaltStopsRun(t *testing.T) {
	e := New()
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.At(i, func() {
			count++
			if count == 3 {
				e.Halt()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("ran %d events after Halt, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d after halt, want 7", e.Pending())
	}
}

func TestRunUntilRespectsDeadline(t *testing.T) {
	e := New()
	var ran []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { ran = append(ran, at) })
	}
	end := e.RunUntil(25)
	if end != 25 {
		t.Fatalf("RunUntil returned %d, want 25", end)
	}
	if len(ran) != 2 || ran[0] != 10 || ran[1] != 20 {
		t.Fatalf("RunUntil ran %v, want [10 20]", ran)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	// Resuming processes the remainder.
	e.Run()
	if len(ran) != 4 {
		t.Fatalf("resume ran %v", ran)
	}
}

func TestRunReturnsFinalTime(t *testing.T) {
	e := New()
	e.At(123, func() {})
	if end := e.Run(); end != 123 {
		t.Fatalf("Run returned %d, want 123", end)
	}
}

func TestHeapOrderProperty(t *testing.T) {
	// Property: any multiset of timestamps is drained in sorted order.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		e := New()
		n := 200
		want := make([]Time, n)
		var got []Time
		for i := 0; i < n; i++ {
			at := Time(r.Uint64n(1000))
			want[i] = at
			e.At(at, func() { got = append(got, e.Now()) })
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		e.Run()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTickerPeriodAndStop(t *testing.T) {
	e := New()
	var ticks []Time
	var tk *Ticker
	tk = NewTicker(e, 10, func() {
		ticks = append(ticks, e.Now())
		if len(ticks) == 4 {
			tk.Stop()
		}
	})
	e.Run()
	want := []Time{10, 20, 30, 40}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero ticker period did not panic")
		}
	}()
	NewTicker(New(), 0, func() {})
}

func TestMicrosConversion(t *testing.T) {
	if got := Micros(2.5); got != 2500 {
		t.Fatalf("Micros(2.5) = %d, want 2500", got)
	}
	if got := Micros(0.0005); got != 1 {
		t.Fatalf("Micros(0.0005) = %d, want 1 (rounded)", got)
	}
	if got := (2500 * Nanosecond).Micros(); got != 2.5 {
		t.Fatalf("Time.Micros = %v, want 2.5", got)
	}
	if got := Second.Seconds(); got != 1 {
		t.Fatalf("Second.Seconds = %v, want 1", got)
	}
}

func TestMicrosRoundsHalfAwayFromZero(t *testing.T) {
	cases := []struct {
		us   float64
		want Time
	}{
		{0, 0},
		{0.0005, 1},   // exact half rounds up
		{0.0004, 0},   // below half truncates
		{1.2, 1200},   // plain positive
		{-1.2, -1200}, // plain negative: must not truncate toward zero
		{-0.0005, -1}, // exact negative half rounds away from zero
		{-0.0004, 0},  // below half rounds to zero
		{-2.5, -2500}, // negative with exact ns value
		{-0.0012, -1}, // -1.2ns rounds to -1, not 0 (truncation bug)
		{-0.0018, -2}, // -1.8ns rounds to -2
	}
	for _, c := range cases {
		if got := Micros(c.us); got != c.want {
			t.Errorf("Micros(%v) = %d, want %d", c.us, got, c.want)
		}
	}
	// Symmetry: negating the input negates the output.
	for _, us := range []float64{0.0005, 0.3, 1.7, 2.5, 99.9999} {
		if Micros(-us) != -Micros(us) {
			t.Errorf("Micros(%v)=%d but Micros(%v)=%d: not symmetric",
				us, Micros(us), -us, Micros(-us))
		}
	}
}

func TestEngineExecutedCountsEvents(t *testing.T) {
	e := New()
	if e.Executed() != 0 {
		t.Fatalf("fresh engine Executed() = %d", e.Executed())
	}
	for i := 1; i <= 5; i++ {
		e.After(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 5 {
		t.Fatalf("Executed() = %d after 5 events, want 5", e.Executed())
	}
	// RunUntil counts, too, and the counter accumulates across calls.
	e.After(1, func() { e.After(1, func() {}) })
	e.RunUntil(e.Now() + 10)
	if e.Executed() != 7 {
		t.Fatalf("Executed() = %d after 7 events, want 7", e.Executed())
	}
}

func BenchmarkEngineChurn(b *testing.B) {
	// Measures push/pop throughput with a live queue of self-renewing
	// events: a dozen deep, which is what the machine models hold in
	// flight, and 1024 deep, the benchmark's churn row.
	for _, depth := range []int{12, 1024} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			e := New()
			r := rng.New(1)
			var fn func()
			fn = func() {
				e.After(Time(r.Uint64n(1000)+1), fn)
			}
			for i := 0; i < depth; i++ {
				e.After(Time(r.Uint64n(1000)+1), fn)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := e.wheel.pop()
				e.now = ev.at
				ev.fn()
			}
		})
	}
}

// BenchmarkEngineChurnHeap is the same workload on the plain 4-ary
// heap alone.
func BenchmarkEngineChurnHeap(b *testing.B) {
	var (
		h   eventHeap
		now Time
		seq uint64
	)
	r := rng.New(1)
	push := func(fn func()) {
		seq++
		h.push(event{at: now + Time(r.Uint64n(1000)+1), seq: seq, fn: fn})
	}
	var fn func()
	fn = func() { push(fn) }
	for i := 0; i < 1024; i++ {
		push(fn)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		now = ev.at
		ev.fn()
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0ns"},
		{740, "740ns"},
		{-30, "-30ns"},
		{Microsecond, "1µs"},
		{2070, "2.07µs"},
		{1500 * Microsecond, "1.5ms"},
		{Second, "1s"},
		{2*Second + 500*Millisecond, "2.5s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}
