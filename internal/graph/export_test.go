package graph

// TopoSortsComputed returns how many topological sorts every graph in the
// process has computed so far; a sort served from a graph's cached order
// does not count.
func TopoSortsComputed() int64 { return topoSorts.Load() }
