//go:build race

package kvstore

// raceEnabled reports that this binary was built with -race: the detector
// instruments memory accesses with allocations of its own, so allocation
// counts are meaningless under it.
const raceEnabled = true
