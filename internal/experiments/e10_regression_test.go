package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// Pins E10's published quick-mode table byte-for-byte. Re-pinned once
// when fault.Checkpoint.Simulate moved to per-replication substream
// seeding (stats.Substream) — a deliberate one-time change to RNG
// consumption that makes the sweep bit-identical at any shard count.
// Any further drift is a regression.
func TestE10QuickOutputPinned(t *testing.T) {
	tab := runScenario(t, "E10", true)
	sum := sha256.Sum256([]byte(tab.String()))
	const want = "a6ae0c2f3e22b74a526b80487ae2ef424b59d90d443c901f2a43c844ce9f0590"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("E10 quick table changed: sha256 = %s, want %s\n%s", got, want, tab.String())
	}
}
