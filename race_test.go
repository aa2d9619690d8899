//go:build race

package timecrypt_test

// raceEnabled is true when the race detector is built in. Its sync.Pool
// drops a random quarter of the items put back, on purpose, so pooled
// paths allocate again and the allocation and footprint budgets do not
// hold there (overBudget).
const raceEnabled = true
