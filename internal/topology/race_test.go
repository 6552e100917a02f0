//go:build race

package topology

// raceEnabled trims TestRingRoutesMatchTrees to its smaller shapes: the
// full 3.5 million routes take minutes under the race detector, and the
// ring router shares no state between goroutines.
const raceEnabled = true
