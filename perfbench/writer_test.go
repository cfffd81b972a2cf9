package main

import (
	"errors"
	"testing"
	"time"
)

// A batch that stalls delays the batches due behind it; the open loop
// must time those from their due times and report them late.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const interval = 20 * time.Millisecond
	const stall = 70 * time.Millisecond
	start := time.Now()
	until := start.Add(5 * interval)
	type rec struct{ fromDue, late time.Duration }
	var recs []rec
	var sentAt []time.Duration
	openLoop(start, interval, until, func(k int) error {
		sentAt = append(sentAt, time.Since(start))
		if k == 1 {
			time.Sleep(stall)
			return errors.New("stalled")
		}
		return nil
	}, func(fromDue, late time.Duration, err error) {
		recs = append(recs, rec{fromDue, late})
	})
	if len(recs) != 6 {
		t.Fatalf("%d batches, want 6 (due at 0..5 intervals)", len(recs))
	}
	for k := range recs {
		if sentAt[k] < time.Duration(k)*interval {
			t.Errorf("batch %d sent at %v, before its due time %v", k, sentAt[k], time.Duration(k)*interval)
		}
	}
	// Batch 1 ends at about 1·interval + stall = 90ms; batch 2 was due at
	// 40ms, so it is sent about 50ms late and timed from 40ms.
	if recs[1].fromDue < stall {
		t.Errorf("stalled batch timed %v from its due time, want >= %v", recs[1].fromDue, stall)
	}
	if recs[2].late < stall-interval-5*time.Millisecond {
		t.Errorf("batch behind the stall reported %v late, want about %v", recs[2].late, stall-interval)
	}
	if recs[2].fromDue < recs[2].late {
		t.Errorf("batch 2: latency from due %v below its lateness %v", recs[2].fromDue, recs[2].late)
	}
	if recs[5].late > 15*time.Millisecond {
		t.Errorf("batch 5 is %v late; the loop should have caught up", recs[5].late)
	}
}
