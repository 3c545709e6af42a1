package core

import (
	"testing"
)

// TestActivationZeroAlloc is the allocation gate for task activation:
// scheduling a task and running one activation of it on a worker (inbox
// push, wakeup, find, state transitions, the execution context) allocates
// nothing.
func TestActivationZeroAlloc(t *testing.T) {
	s := NewScheduler(1, Cooperative)
	ran := make(chan struct{}, 1)
	task := s.NewTask("tick", func(ctx *ExecCtx) RunResult {
		ctx.CountItem()
		select { // a RunningDirty rerun may find the token still unread
		case ran <- struct{}{}:
		default:
		}
		return RunIdle
	})
	s.Start()
	defer s.Stop()
	activate := func() {
		s.Schedule(task)
		<-ran
	}
	for i := 0; i < 100; i++ {
		activate()
	}
	if n := testing.AllocsPerRun(1000, activate); n != 0 {
		t.Fatalf("one activation allocates %.2f objects, want 0", n)
	}
}
