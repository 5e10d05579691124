package obs

import "slices"

// denseCores bounds the core indices the read side stores densely and
// tabulates per core: 64 of internal/rack's 1024-core machine bands.
// Core values reach this package from files (ReadChrome), so nothing
// here may be sized by a core's value beyond this bound.
const denseCores = 1 << 16

// denseSlots is the dense slice's length limit: the worker cores plus
// the two pseudo-cores below them.
const denseSlots = uint32(denseCores - CoreLoadgen)

// perCore holds at most one value per core — the open quantum's start
// time in Summarize and Windows, its task in Validate, a track's
// presence in WriteChrome. Cores from CoreLoadgen up to denseCores live
// in a slice grown to the highest core seen; any other int32 falls back
// to a map, so a hostile core value costs one map entry, never a slice
// of its size. The zero value is empty and ready to use.
type perCore[V any] struct {
	dense  []coreSlot[V] // index: core - CoreLoadgen
	sparse map[int32]V
}

type coreSlot[V any] struct {
	v  V
	ok bool
}

// get returns core's value and whether it holds one.
func (p *perCore[V]) get(core int32) (v V, ok bool) {
	// int32 wrap-around is harmless: core -> core-CoreLoadgen is a
	// bijection on 32 bits, so no out-of-range core aliases a dense index.
	if i := uint32(core - CoreLoadgen); i < uint32(len(p.dense)) {
		s := &p.dense[i]
		return s.v, s.ok
	}
	v, ok = p.sparse[core]
	return v, ok
}

// set stores v as core's value.
func (p *perCore[V]) set(core int32, v V) {
	i := uint32(core - CoreLoadgen)
	if i >= uint32(len(p.dense)) {
		if i >= denseSlots {
			if p.sparse == nil {
				p.sparse = map[int32]V{}
			}
			p.sparse[core] = v
			return
		}
		p.dense = append(p.dense, make([]coreSlot[V], int(i)+1-len(p.dense))...)
	}
	p.dense[i] = coreSlot[V]{v, true}
}

// clear empties core's slot.
func (p *perCore[V]) clear(core int32) {
	if i := uint32(core - CoreLoadgen); i < uint32(len(p.dense)) {
		p.dense[i] = coreSlot[V]{}
		return
	}
	delete(p.sparse, core)
}

// cores returns the cores holding a value, in ascending order.
func (p *perCore[V]) cores() []int32 {
	var out []int32
	for core := range p.sparse {
		out = append(out, core)
	}
	for i := range p.dense {
		if p.dense[i].ok {
			out = append(out, int32(i)+CoreLoadgen)
		}
	}
	slices.Sort(out)
	return out
}
