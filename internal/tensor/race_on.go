//go:build race

package tensor

// RaceEnabled: see race_off.go.
const RaceEnabled = true
