// Package fixture is the module TestExportCensusFixture runs the API
// census over. Its internal package has one export of each kind the
// census must tell apart.
package fixture

import "fixture/internal/lib"

// Thing is re-exported, so its methods are public API.
type Thing = lib.Thing

// Total calls Area through the Shape interface only.
func Total(shapes ...lib.Shape) float64 {
	lib.Used()
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}
