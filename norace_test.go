//go:build !race

package timecrypt_test

// raceEnabled is false in a build without the race detector, where the
// allocation and footprint budgets are asserted (overBudget).
const raceEnabled = false
