//go:build !race

package route

const raceEnabled = false
