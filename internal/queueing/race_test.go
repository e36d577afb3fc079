//go:build race

package queueing_test

func init() { raceEnabled = true }
