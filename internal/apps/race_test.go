//go:build race

package apps

// The race detector makes sync.Pool drop a random share of Puts, so pooled
// records and buffers are reallocated at random and allocation gates
// cannot hold.
func init() { raceDetector = true }
