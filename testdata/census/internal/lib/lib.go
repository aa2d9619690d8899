// Package lib declares the exports TestExportCensusFixture sorts; only
// OnlyTested and Recursive have no non-test caller.
package lib

// Shape is implemented by Square.
type Shape interface{ Area() float64 }

// Square is a Shape.
type Square struct{ Side float64 }

// Area is called only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is called only through fmt.Stringer.
func (s Square) String() string { return "square" }

// Thing is re-exported by the root package.
type Thing struct{}

// Method is public API through the root package's alias.
func (*Thing) Method() {}

// Used is called by the root package.
func Used() {}

// OnlyTested is called only by lib_test.go.
func OnlyTested() {}

// Recursive is referenced only by itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}
