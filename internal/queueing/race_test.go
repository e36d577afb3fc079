//go:build race

package queueing

func init() { raceEnabled = true }
