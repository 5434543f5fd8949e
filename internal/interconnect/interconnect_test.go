package interconnect

import (
	"testing"

	"gpues/internal/clock"
)

// visits drains the queue and returns the cycles it stopped at.
func visits(q *clock.Queue) []int64 {
	var at []int64
	for {
		next, ok := q.NextEvent()
		if !ok {
			return at
		}
		q.SkipTo(next)
		at = append(at, next)
	}
}

func TestSingleChannelSerializes(t *testing.T) {
	q := clock.New()
	l, err := New("pcie", q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		l.Occupy(100)
	}
	times := visits(q)
	want := []int64{100, 200, 300}
	if len(times) != len(want) {
		t.Fatalf("occupancies ended at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("occupancy %d ended at %d, want %d", i, times[i], want[i])
		}
	}
	s := l.Stats()
	if s.Transfers != 3 || s.BusyCycles != 300 {
		t.Errorf("stats = %+v", s)
	}
	if s.StallCycles != 100+200 {
		t.Errorf("stall cycles = %d, want 300", s.StallCycles)
	}
}

func TestTwoChannelsOverlap(t *testing.T) {
	q := clock.New()
	l, _ := New("nvlink", q, 2)
	for i := 0; i < 4; i++ {
		l.Occupy(100)
	}
	// Two at a time: two end at 100 and two at 200, one mark each.
	if times := visits(q); len(times) != 2 || times[0] != 100 || times[1] != 200 {
		t.Errorf("visits = %v, want [100 200]", times)
	}
	if s := l.Stats(); s.StallCycles != 2*100 {
		t.Errorf("stall cycles = %d, want 200", s.StallCycles)
	}
}

func TestUtilization(t *testing.T) {
	q := clock.New()
	l, _ := New("x", q, 1)
	l.Occupy(50)
	visits(q)
	q.SkipTo(100)
	if u := l.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestZeroCycleOccupancyRoundsUp(t *testing.T) {
	q := clock.New()
	l, _ := New("x", q, 1)
	l.Occupy(0)
	if times := visits(q); len(times) != 1 || times[0] != 1 {
		t.Errorf("zero occupancy ended at %v, want [1]", times)
	}
}

func TestValidation(t *testing.T) {
	q := clock.New()
	if _, err := New("bad", q, 0); err == nil {
		t.Error("zero channels accepted")
	}
	l, _ := New("n", q, 2)
	if l.Name() != "n" {
		t.Errorf("Name = %q", l.Name())
	}
}
