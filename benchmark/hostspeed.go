package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The host clock. The benchmark runs on a few cores of a shared host
// whose speed moves by tens of percent in phases of seconds to minutes
// (README.md, "Noise floor"), so a time measured there says as much
// about the neighbours as about the program. Every gated time is
// therefore stated in seconds of a reference host: beside each timed
// step the benchmark runs a frozen reference kernel, and the step's
// time is scaled by how much faster or slower than nominal the kernel
// ran just before and just after it.
//
// The kernel is a toy discrete-event simulation — a binary event heap,
// sixteen servers, a FIFO backlog, one 256-byte request record written
// per arrival into a 64 MB arena — because a host's phases slow
// pointer-chasing, memory-streaming code more than arithmetic, and the
// programs under test are of the first kind. It is the benchmark's own
// code and calls nothing of the repository's: a change to the program
// cannot move it. Its arena lives outside the Go heap, so holding it
// does not change the garbage collector's pacing for the program under
// test, and it allocates nothing while it runs.

const (
	// refEvents is the length of one kernel run (about a quarter of a
	// second) and refNsPerEvent what an event costs on the defining box
	// in a quiet phase: the constant that makes a reference second about
	// a second.
	refEvents     = 6_000_000
	refNsPerEvent = 40.0

	refArena   = 1 << 18 // request records, 256 B each
	refLatency = 1 << 20 // completed-latency ring
	refServers = 16
)

type refRequest struct {
	arrival, service uint64
	pad              [30]uint64 // written with the record: the memory traffic of a request's state
}

// refEvent is an arrival (req < 0) or the completion of request req.
type refEvent struct {
	at  uint64
	req int32
}

type refKernel struct {
	arena   []refRequest // off-heap
	latency []uint64     // off-heap
	heap    []refEvent
	backlog []int32
}

// offHeap maps zeroed memory the garbage collector does not count.
func offHeap(bytes int) (unsafe.Pointer, error) {
	b, err := syscall.Mmap(-1, 0, bytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d bytes for the reference kernel: %w", bytes, err)
	}
	return unsafe.Pointer(&b[0]), nil
}

func newRefKernel() (*refKernel, error) {
	arena, err := offHeap(refArena * int(unsafe.Sizeof(refRequest{})))
	if err != nil {
		return nil, err
	}
	latency, err := offHeap(refLatency * 8)
	if err != nil {
		return nil, err
	}
	return &refKernel{
		arena:   unsafe.Slice((*refRequest)(arena), refArena),
		latency: unsafe.Slice((*uint64)(latency), refLatency),
		heap:    make([]refEvent, 0, 1<<12),
		backlog: make([]int32, 1<<16),
	}, nil
}

func (k *refKernel) push(e refEvent) {
	k.heap = append(k.heap, e)
	h := k.heap
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].at <= h[i].at {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (k *refKernel) pop() refEvent {
	h := k.heap
	top, last := h[0], len(h)-1
	h[0] = h[last]
	k.heap = h[:last]
	for i := 0; ; {
		left, right, least := 2*i+1, 2*i+2, i
		if left < last && h[left].at < h[least].at {
			least = left
		}
		if right < last && h[right].at < h[least].at {
			least = right
		}
		if least == i {
			break
		}
		h[least], h[i] = h[i], h[least]
		i = least
	}
	return top
}

// run simulates n events and returns a checksum of what it computed.
func (k *refKernel) run(n int) uint64 {
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	k.heap = k.heap[:0]
	var (
		arrived, done, head, tail int
		busy                      int
		sum                       uint64
	)
	k.push(refEvent{at: 0, req: -1})
	for i := 0; i < n; i++ {
		e := k.pop()
		if e.req < 0 {
			id := int32(arrived & (refArena - 1))
			arrived++
			r := refRequest{arrival: e.at, service: 400 + next()%800}
			if next()%200 == 0 {
				r.service = 100_000
			}
			k.arena[id] = r
			k.push(refEvent{at: e.at + 50 + next()%100, req: -1})
			switch {
			case busy < refServers:
				busy++
				k.push(refEvent{at: e.at + r.service, req: id})
			case tail-head < len(k.backlog):
				k.backlog[tail&(len(k.backlog)-1)] = id
				tail++
			}
			continue
		}
		wait := e.at - k.arena[e.req].arrival
		k.latency[done&(refLatency-1)] = wait
		done++
		sum += wait
		if tail > head {
			id := k.backlog[head&(len(k.backlog)-1)]
			head++
			k.push(refEvent{at: e.at + k.arena[id].service, req: id})
		} else {
			busy--
		}
	}
	return sum ^ x ^ uint64(done)
}

// hostClock scales times measured on this host to reference seconds.
type hostClock struct {
	kernel *refKernel
	events int
	prev   usage
	// speeds are this host's speed at every kernel run, as a share of the
	// reference host's.
	speeds []float64
	sink   uint64
}

// newHostClock maps the kernel's memory and runs it once, untimed, so
// that every page is touched before the first timed run.
func newHostClock(quick bool) (*hostClock, error) {
	k, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	c := &hostClock{kernel: k, events: refEvents}
	if quick {
		c.events /= 60
	}
	c.sink = k.run(c.events)
	return c, nil
}

// nominal is what one kernel run takes on the reference host.
func (c *hostClock) nominal() float64 { return refNsPerEvent * float64(c.events) / 1e9 }

// sample runs the kernel and reports its wall and CPU time.
func (c *hostClock) sample() usage {
	cpu0, start := cpuSeconds(), time.Now()
	c.sink += c.kernel.run(c.events)
	u := usage{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0}
	c.speeds = append(c.speeds, c.nominal()/u.wall)
	return u
}

// start opens the first timed step.
func (c *hostClock) start() { c.prev = c.sample() }

// lap closes the step that began at the last start or lap and returns
// what to multiply its wall and CPU seconds by: the reference host's
// kernel time over the mean of this host's before and after the step.
// CPU is scaled by the kernel's CPU time and wall by its wall time, so
// a neighbour inside the machine, which costs wall time but no CPU, is
// taken out of the one it affects.
func (c *hostClock) lap() (wall, cpu float64) {
	cur := c.sample()
	wall = c.nominal() / ((c.prev.wall + cur.wall) / 2)
	cpu = c.nominal() / ((c.prev.cpu + cur.cpu) / 2)
	c.prev = cur
	return wall, cpu
}
