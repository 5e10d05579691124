package rack

// Variant identifies one fleet configuration in a rack study: a
// routing policy on N instances of a registry machine.
type Variant struct {
	// Policy is the routing policy name (RouterNames).
	Policy string
	// Machine is the per-node registry machine name.
	Machine string
	// N is the fleet size.
	N int
}

// Fleet returns the variant's Fleet value.
func (v Variant) Fleet() Fleet { return Fleet{N: v.N, Machine: v.Machine, Policy: v.Policy} }

// Variants builds the cross product policies × machines × sizes in
// that nesting order — one cluster.Plan curve each (Fleet is a
// cluster.Machine), as experiments.CompareRack declares them.
func Variants(policies, machines []string, sizes []int) []Variant {
	var out []Variant
	for _, p := range policies {
		for _, m := range machines {
			for _, n := range sizes {
				out = append(out, Variant{Policy: p, Machine: m, N: n})
			}
		}
	}
	return out
}
