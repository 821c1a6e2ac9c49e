// The benchmark is a module of its own so that it has its own build file;
// the replace directive points at the repository it measures, and the
// module path keeps it inside ubiqos/ so it may import ubiqos/internal/...
module ubiqos/benchmark

go 1.22

require ubiqos v0.0.0

replace ubiqos => ../
