package core

import (
	"testing"
)

func TestPRGDeterministic(t *testing.T) {
	for _, kind := range []PRGKind{PRGAES, PRGSHA256, PRGHMAC} {
		prg := NewPRG(kind)
		x := Node{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
		l1, r1 := prg.Expand(x)
		l2, r2 := prg.Expand(x)
		if l1 != l2 || r1 != r2 {
			t.Errorf("%s: Expand not deterministic", prg.Name())
		}
		if l1 == r1 {
			t.Errorf("%s: left and right children equal", prg.Name())
		}
		if l1 == x || r1 == x {
			t.Errorf("%s: child equals parent", prg.Name())
		}
	}
}

func TestPRGKindsDiffer(t *testing.T) {
	x := Node{42}
	la, _ := NewPRG(PRGAES).Expand(x)
	ls, _ := NewPRG(PRGSHA256).Expand(x)
	lh, _ := NewPRG(PRGHMAC).Expand(x)
	if la == ls || la == lh || ls == lh {
		t.Error("different PRG constructions should produce different outputs")
	}
}

func TestPRGDistinctInputsDistinctOutputs(t *testing.T) {
	prg := NewPRG(PRGAES)
	seen := make(map[Node]bool)
	for i := 0; i < 256; i++ {
		var x Node
		x[0] = byte(i)
		l, r := prg.Expand(x)
		if seen[l] || seen[r] {
			t.Fatalf("collision in PRG outputs at input %d", i)
		}
		seen[l], seen[r] = true, true
	}
}

func TestPRGKindStringUnknown(t *testing.T) {
	if s := PRGKind(99).String(); s != "PRGKind(99)" {
		t.Errorf("got %q", s)
	}
}

func TestNewPRGPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown PRGKind")
		}
	}()
	NewPRG(PRGKind(99))
}
