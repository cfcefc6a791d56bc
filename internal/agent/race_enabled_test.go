//go:build race

package agent

func init() { raceEnabled = true }
