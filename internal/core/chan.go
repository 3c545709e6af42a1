package core

import (
	"sync"

	"flick/internal/value"
)

// Chan is a FIFO of values connecting two tasks (§3.2: "channels move data
// between tasks"). Multiple producers are permitted (fan-in); the single
// consumer is the task registered with SetConsumer, which is scheduled
// whenever data or EOF arrives.
//
// Push never blocks, so a worker thread can never deadlock on a full
// channel. Flow control is backpressure instead: a producer task that
// finds the channel at HighWater calls ParkFull, which registers it in the
// channel's parked-producer set under the channel lock, and ends its
// activation with RunIdle. The task is then off every run queue until Pop
// drains the channel to LowWater or Close ends it, and either reschedules
// every parked producer. Registration and the drain check share the lock,
// so no wakeup is lost.
type Chan struct {
	mu     sync.Mutex
	buf    []value.Value
	head   int
	size   int
	closed bool

	consumer *Task
	sched    scheduler

	// parked holds the producer tasks waiting for room (see ParkFull).
	// Its backing array is reused, so parking does not allocate once the
	// set has reached its steady size.
	parked []parkedTask
}

// parkedTask is one producer waiting in a channel's parked set, with the
// scheduler that reschedules it.
type parkedTask struct {
	task  *Task
	sched scheduler
}

// HighWater is the soft capacity producers respect: at this depth
// ParkFull parks the producer.
const HighWater = 1024

// LowWater is the depth at or below which Pop reschedules parked
// producers. The gap to HighWater lets a woken producer run a long batch
// before it parks again, instead of waking per item.
const LowWater = HighWater / 2

// scheduler is the hook channels use to wake their consumer.
type scheduler interface {
	Schedule(t *Task)
}

// NewChan creates a channel with the given initial capacity.
func NewChan(capacity int) *Chan {
	if capacity < 8 {
		capacity = 8
	}
	return &Chan{buf: make([]value.Value, capacity)}
}

// SetConsumer registers the task to schedule on arrival.
func (c *Chan) SetConsumer(t *Task, s scheduler) {
	c.mu.Lock()
	c.consumer = t
	c.sched = s
	c.mu.Unlock()
}

// Push appends v and wakes the consumer. Pushing to a closed channel drops
// the value (the consumer is gone).
//
// Refcounting: the channel retains v's backing region while it is queued;
// Pop transfers that reference to the consumer, which must Release after
// processing. Producers keep (and separately release) their own reference,
// so fan-out — pushing one value to several channels — is safe.
func (c *Chan) Push(v value.Value) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	v.Retain()
	if c.size == len(c.buf) {
		c.grow()
	}
	c.buf[(c.head+c.size)%len(c.buf)] = v
	c.size++
	consumer, sched := c.consumer, c.sched
	c.mu.Unlock()
	if consumer != nil && sched != nil {
		sched.Schedule(consumer)
	}
}

func (c *Chan) grow() {
	nb := make([]value.Value, len(c.buf)*2)
	for i := 0; i < c.size; i++ {
		nb[i] = c.buf[(c.head+i)%len(c.buf)]
	}
	c.buf = nb
	c.head = 0
}

// Pop removes the next value. ok reports whether a value was returned;
// closed reports that the channel is closed AND drained. A Pop that leaves
// the channel at LowWater or below reschedules every parked producer.
func (c *Chan) Pop() (v value.Value, ok bool, closed bool) {
	c.mu.Lock()
	if c.size > 0 {
		v = c.buf[c.head]
		c.buf[c.head] = value.Null
		c.head = (c.head + 1) % len(c.buf)
		c.size--
		if len(c.parked) > 0 && c.size <= LowWater {
			c.wakeParkedLocked()
		}
		c.mu.Unlock()
		return v, true, false
	}
	cl := c.closed
	c.mu.Unlock()
	return value.Null, false, cl
}

// Peek reports whether a value is available without consuming it.
func (c *Chan) Peek() bool {
	c.mu.Lock()
	n := c.size
	c.mu.Unlock()
	return n > 0
}

// Len returns the number of queued values.
func (c *Chan) Len() int {
	c.mu.Lock()
	n := c.size
	c.mu.Unlock()
	return n
}

// ParkFull reports whether the channel is at HighWater. If it is, the
// task running ctx joins the channel's parked-producer set and must end
// its activation with RunIdle: the channel reschedules it once Pop drains
// to LowWater or Close ends the stream. A closed channel never parks
// anyone, since pushes to it are dropped. Parking twice before a wakeup
// registers the task once.
//
// The check and the registration happen under the channel lock, the same
// lock Pop takes to decide on a wakeup, so a drain racing the park either
// sees the registration or happened before the depth check. A wakeup that
// lands while the producer is still finishing its activation marks it
// RunningDirty, and the scheduler requeues it.
func (c *Chan) ParkFull(ctx *ExecCtx) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.size < HighWater {
		return false
	}
	for _, p := range c.parked {
		if p.task == ctx.task {
			return true
		}
	}
	c.parked = append(c.parked, parkedTask{task: ctx.task, sched: ctx.sched})
	return true
}

// wakeParkedLocked reschedules and forgets every parked producer. Schedule
// only touches scheduler queues, never a channel lock, so calling it with
// c.mu held cannot deadlock; holding the lock keeps the parked slice's
// backing array private to this call.
func (c *Chan) wakeParkedLocked() {
	for i, p := range c.parked {
		p.sched.Schedule(p.task)
		c.parked[i] = parkedTask{}
	}
	c.parked = c.parked[:0]
}

// Close marks end-of-stream and wakes the consumer so it can observe the
// closure after draining, and every parked producer. Close is idempotent.
func (c *Chan) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.wakeParkedLocked()
	consumer, sched := c.consumer, c.sched
	c.mu.Unlock()
	if consumer != nil && sched != nil {
		sched.Schedule(consumer)
	}
}

// Closed reports whether Close has been called (regardless of drain state).
func (c *Chan) Closed() bool {
	c.mu.Lock()
	cl := c.closed
	c.mu.Unlock()
	return cl
}

// Reset returns the channel to its initial open empty state (graph
// pooling), releasing the reference held for every still-queued value and
// forgetting parked producers without waking them: they belong to the
// previous binding.
func (c *Chan) Reset() {
	c.mu.Lock()
	for i := 0; i < c.size; i++ {
		c.buf[(c.head+i)%len(c.buf)].Release()
	}
	for i := range c.buf {
		c.buf[i] = value.Null
	}
	c.head, c.size = 0, 0
	c.closed = false
	for i := range c.parked {
		c.parked[i] = parkedTask{}
	}
	c.parked = c.parked[:0]
	c.mu.Unlock()
}
