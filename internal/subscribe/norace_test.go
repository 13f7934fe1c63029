//go:build !race

package subscribe

const raceEnabled = false
