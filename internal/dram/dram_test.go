package dram

import (
	"testing"

	"gpues/internal/clock"
)

func drain(q *clock.Queue) {
	for q.Len() > 0 {
		q.Step()
	}
}

func TestFetchLatency(t *testing.T) {
	q := clock.New()
	d, err := New(q, 200, 256, 128)
	if err != nil {
		t.Fatal(err)
	}
	var done int64 = -1
	d.Fetch(0x1000, clock.Event{Fn: func(int64) { done = q.Now() }})
	drain(q)
	// 128B at 256B/cycle = 0.5 cycles occupancy + 200 latency.
	if done != 200 {
		t.Errorf("fetch completed at %d, want 200", done)
	}
	s := d.Stats()
	if s.Reads != 1 || s.BytesRead != 128 {
		t.Errorf("stats = %+v", s)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	q := clock.New()
	// 1 byte/cycle so each 128B line occupies the pipe for 128 cycles.
	d, _ := New(q, 10, 1, 128)
	var times []int64
	for i := 0; i < 4; i++ {
		d.Fetch(uint64(i*128), clock.Event{Fn: func(int64) { times = append(times, q.Now()) }})
	}
	drain(q)
	if len(times) != 4 {
		t.Fatalf("completions = %d", len(times))
	}
	// i-th completes at (i+1)*128 + 10.
	for i, got := range times {
		want := int64((i+1)*128 + 10)
		if got != want {
			t.Errorf("fetch %d completed at %d, want %d", i, got, want)
		}
	}
	if d.Stats().StallCycles == 0 {
		t.Error("queued requests must record stall cycles")
	}
}

func TestWritesShareBandwidth(t *testing.T) {
	q := clock.New()
	d, _ := New(q, 0, 1, 128)
	var rdDone int64
	d.Write(0)
	wrDone, ok := q.NextEvent()
	if !ok || wrDone != 128 {
		t.Fatalf("write marked %d,%v, want 128 (one line at 1 B/cycle)", wrDone, ok)
	}
	d.Fetch(128, clock.Event{Fn: func(int64) { rdDone = q.Now() }})
	drain(q)
	if rdDone != 2*wrDone {
		t.Errorf("write done %d, read done %d: read must queue behind write", wrDone, rdDone)
	}
}

func TestTransferBulk(t *testing.T) {
	q := clock.New()
	d, _ := New(q, 100, 256, 128)
	var done int64
	d.Transfer(64*1024, clock.Event{Fn: func(int64) { done = q.Now() }})
	drain(q)
	// 64KB / 256Bpc = 256 cycles + 100 latency.
	if done != 356 {
		t.Errorf("transfer completed at %d, want 356", done)
	}
	// Zero-byte transfer still completes.
	fired := false
	d.Transfer(0, clock.Event{Fn: func(int64) { fired = true }})
	drain(q)
	if !fired {
		t.Error("empty transfer never completed")
	}
}

func TestCompletionNeverInPast(t *testing.T) {
	q := clock.New()
	d, _ := New(q, 0, 1024, 4) // sub-cycle occupancy, zero latency
	var done int64 = -1
	d.Fetch(0, clock.Event{Fn: func(int64) { done = q.Now() }})
	drain(q)
	if done < 1 {
		t.Errorf("completion at %d, want >= 1 cycle after issue", done)
	}
}

func TestNewValidation(t *testing.T) {
	q := clock.New()
	if _, err := New(q, -1, 256, 128); err == nil {
		t.Error("negative latency accepted")
	}
	if _, err := New(q, 1, 0, 128); err == nil {
		t.Error("zero bandwidth accepted")
	}
	if _, err := New(q, 1, 1, 0); err == nil {
		t.Error("zero line accepted")
	}
}
