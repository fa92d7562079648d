//go:build !race

package harness

// raceEnabled reports whether the race detector is active; the calibrated
// shape tests are skipped under it because its instrumentation reweights
// every cost the calibration depends on, and the soak test's watchdog
// widens its interval because the detector stretches host time.
const raceEnabled = false
