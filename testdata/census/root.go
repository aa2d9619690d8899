// Package fixture is the module TestExportCensusFixture runs the API
// census over. Its internal packages have one export of each kind the
// census must tell apart.
package fixture

import (
	"fixture/internal/lib"
	"fixture/internal/server"
)

// Thing is re-exported, so its methods are public API.
type Thing = lib.Thing

// Engine is re-exported, but its methods serve the wire, not clients.
type Engine = server.Engine

// Total calls Area through the Shape interface only.
func Total(shapes ...lib.Shape) float64 {
	lib.Used()
	sum := 0.0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}
