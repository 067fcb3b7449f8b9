//go:build !race

package transport

// raceEnabled reports whether this test binary was built with the race
// detector, which changes what allocates.
const raceEnabled = false
