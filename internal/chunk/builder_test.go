package chunk

import (
	"testing"
)

func TestBuilderBasicBatching(t *testing.T) {
	b, err := NewBuilder(1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	var completed []Raw
	for _, ts := range []int64{1000, 1050, 1099, 1100, 1150, 1200} {
		done, err := b.Add(Point{TS: ts, Val: ts})
		if err != nil {
			t.Fatal(err)
		}
		completed = append(completed, done...)
	}
	if len(completed) != 2 {
		t.Fatalf("completed %d chunks, want 2", len(completed))
	}
	c0 := completed[0]
	if c0.Index != 0 || c0.Start != 1000 || c0.End != 1100 || len(c0.Points) != 3 {
		t.Errorf("chunk 0 wrong: %+v", c0)
	}
	c1 := completed[1]
	if c1.Index != 1 || len(c1.Points) != 2 {
		t.Errorf("chunk 1 wrong: %+v", c1)
	}
	last := b.Flush()
	if last == nil || last.Index != 2 || len(last.Points) != 1 {
		t.Errorf("flush wrong: %+v", last)
	}
	if b.Flush() != nil {
		t.Error("second flush should return nil")
	}
}

func TestBuilderEmitsEmptyGapChunks(t *testing.T) {
	b, _ := NewBuilder(0, 10)
	if _, err := b.Add(Point{TS: 5, Val: 1}); err != nil {
		t.Fatal(err)
	}
	// Jump to chunk 4: chunks 0 (1 point), 1..3 (empty) must be emitted.
	done, err := b.Add(Point{TS: 45, Val: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 4 {
		t.Fatalf("emitted %d chunks, want 4", len(done))
	}
	if len(done[0].Points) != 1 {
		t.Error("chunk 0 should have the first point")
	}
	for i := 1; i < 4; i++ {
		if len(done[i].Points) != 0 {
			t.Errorf("gap chunk %d not empty", i)
		}
		if done[i].Index != uint64(i) {
			t.Errorf("gap chunk index %d, want %d", done[i].Index, i)
		}
	}
}

func TestBuilderRejectsOutOfOrder(t *testing.T) {
	b, _ := NewBuilder(0, 100)
	b.Add(Point{TS: 150, Val: 1})
	if _, err := b.Add(Point{TS: 120, Val: 2}); err == nil {
		t.Error("out-of-order point within chunk accepted")
	}
	b.Add(Point{TS: 250, Val: 3}) // completes chunk 1
	if _, err := b.Add(Point{TS: 150, Val: 4}); err == nil {
		t.Error("point for emitted chunk accepted")
	}
}

func TestBuilderRejectsPreEpoch(t *testing.T) {
	b, _ := NewBuilder(1000, 100)
	if _, err := b.Add(Point{TS: 999, Val: 1}); err == nil {
		t.Error("pre-epoch point accepted")
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := NewBuilder(0, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewBuilder(0, -5); err == nil {
		t.Error("negative interval accepted")
	}
}

func TestBuilderAccessors(t *testing.T) {
	b, _ := NewBuilder(500, 250)
	if b.t0 != 500 || b.interval != 250 || b.NextIndex() != 0 {
		t.Error("accessors wrong on fresh builder")
	}
	b.Add(Point{TS: 800, Val: 1}) // chunk 1; chunk 0 emitted empty
	if b.NextIndex() != 1 {
		t.Errorf("NextIndex = %d, want 1", b.NextIndex())
	}
}
