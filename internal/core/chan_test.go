package core

import (
	"sync"
	"testing"

	"flick/internal/value"
)

func TestChanPushPop(t *testing.T) {
	c := NewChan(4)
	for i := 0; i < 10; i++ {
		c.Push(value.Int(int64(i)))
	}
	if c.Len() != 10 {
		t.Fatalf("len = %d", c.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok, closed := c.Pop()
		if !ok || closed || v.AsInt() != int64(i) {
			t.Fatalf("pop %d = %v %v %v", i, v, ok, closed)
		}
	}
	if _, ok, closed := c.Pop(); ok || closed {
		t.Fatal("empty open channel should report neither value nor closure")
	}
}

func TestChanGrowPreservesOrder(t *testing.T) {
	c := NewChan(8)
	// Interleave to exercise wrap-around + growth.
	for i := 0; i < 5; i++ {
		c.Push(value.Int(int64(i)))
	}
	for i := 0; i < 3; i++ {
		c.Pop()
	}
	for i := 5; i < 40; i++ {
		c.Push(value.Int(int64(i)))
	}
	for want := int64(3); want < 40; want++ {
		v, ok, _ := c.Pop()
		if !ok || v.AsInt() != want {
			t.Fatalf("pop = %v (%v), want %d", v, ok, want)
		}
	}
}

func TestChanClose(t *testing.T) {
	c := NewChan(4)
	c.Push(value.Int(1))
	c.Close()
	c.Close() // idempotent
	if !c.Closed() {
		t.Fatal("not closed")
	}
	// Drain still works.
	v, ok, closed := c.Pop()
	if !ok || closed || v.AsInt() != 1 {
		t.Fatal("drain after close failed")
	}
	// Now closed + drained.
	if _, ok, closed := c.Pop(); ok || !closed {
		t.Fatal("closed+drained not reported")
	}
	// Push after close is dropped.
	c.Push(value.Int(2))
	if _, ok, _ := c.Pop(); ok {
		t.Fatal("push after close was accepted")
	}
}

func TestChanSchedulesConsumer(t *testing.T) {
	s := NewScheduler(1, NonCooperative)
	var mu sync.Mutex
	got := []int64{}
	done := make(chan struct{}, 1)
	c := NewChan(4)
	task := s.NewTask("consumer", func(ctx *ExecCtx) RunResult {
		for {
			v, ok, closed := c.Pop()
			if ok {
				mu.Lock()
				got = append(got, v.AsInt())
				mu.Unlock()
				continue
			}
			if closed {
				done <- struct{}{}
				return RunDone
			}
			return RunIdle
		}
	})
	c.SetConsumer(task, s)
	s.Start()
	defer s.Stop()
	for i := 0; i < 5; i++ {
		c.Push(value.Int(int64(i)))
	}
	c.Close()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 5 {
		t.Fatalf("consumed %d values", len(got))
	}
}

// TestChanSaturated pins the flow-control thresholds: ParkFull parks a
// producer only at HighWater, Pop wakes it once the depth reaches
// LowWater and not before, and a closed channel parks nobody.
func TestChanSaturated(t *testing.T) {
	s := NewScheduler(1, NonCooperative) // never started: wakeups stay queued
	producer := s.NewTask("producer", func(*ExecCtx) RunResult { return RunIdle })
	ctx := &ExecCtx{sched: s, task: producer}
	c := NewChan(4)
	for i := 0; i < HighWater-1; i++ {
		c.Push(value.Int(1))
	}
	if c.ParkFull(ctx) {
		t.Fatal("parked below HighWater")
	}
	c.Push(value.Int(1))
	if !c.ParkFull(ctx) || !c.ParkFull(ctx) {
		t.Fatal("did not park at HighWater")
	}
	if n := len(c.parked); n != 1 {
		t.Fatalf("parking twice registered %d entries, want 1", n)
	}
	for c.Len() > LowWater+1 {
		c.Pop()
	}
	if TaskState(producer.state.Load()) != TaskIdle {
		t.Fatal("producer woken above LowWater")
	}
	c.Pop()
	if TaskState(producer.state.Load()) != TaskQueued || len(c.parked) != 0 {
		t.Fatal("producer not woken at LowWater")
	}
	for c.Len() < HighWater {
		c.Push(value.Int(1))
	}
	c.Close()
	if c.ParkFull(ctx) {
		t.Fatal("closed channel parked a producer")
	}
}

func TestChanReset(t *testing.T) {
	c := NewChan(4)
	c.Push(value.Int(1))
	c.Close()
	c.Reset()
	if c.Closed() || c.Len() != 0 {
		t.Fatal("reset did not clear state")
	}
	c.Push(value.Int(2))
	v, ok, _ := c.Pop()
	if !ok || v.AsInt() != 2 {
		t.Fatal("channel unusable after reset")
	}
}

func TestChanConcurrentProducers(t *testing.T) {
	c := NewChan(8)
	var wg sync.WaitGroup
	const producers, perProducer = 8, 1000
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				c.Push(value.Int(1))
			}
		}()
	}
	wg.Wait()
	if c.Len() != producers*perProducer {
		t.Fatalf("len = %d", c.Len())
	}
}
