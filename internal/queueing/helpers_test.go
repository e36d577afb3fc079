package queueing

import (
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/stats"
)

func newTestRNG() *stats.RNG                { return stats.NewRNG(12345) }
func newTestRNGSeed(seed uint64) *stats.RNG { return stats.NewRNG(seed) }

// withoutAudit clears the process-default checker that TestMain
// installs, so runs without their own checker take the unaudited path,
// and restores it when the test ends.
func withoutAudit(t *testing.T) {
	prev := audit.Default()
	audit.SetDefault(nil)
	t.Cleanup(func() { audit.SetDefault(prev) })
}
