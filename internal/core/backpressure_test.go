package core

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/value"
)

// stalledPipeline runs input → compute over a net.Pipe on a two-worker
// scheduler. The compute body blocks its worker on gate when it receives
// its first value, so the input task fills the channel between them to
// HighWater while more items wait in its byte queue. The compute body
// forwards every line it receives to got.
type stalledPipeline struct {
	sched    *Scheduler
	inst     *Instance
	producer *Task
	ch       *Chan // input → compute
	gate     chan struct{}
	openGate sync.Once
	got      chan string
}

func newStalledPipeline(t *testing.T, items int) *stalledPipeline {
	t.Helper()
	sp := &stalledPipeline{
		gate: make(chan struct{}),
		got:  make(chan string, items),
	}
	tmpl := NewTemplate("stalled")
	in := tmpl.AddInput("in", lineCodec)
	var once sync.Once
	comp := tmpl.AddCompute("slow", func(ctx *NodeCtx, v value.Value, _ int) {
		once.Do(func() { <-sp.gate })
		sp.got <- v.Field("line").AsString()
	})
	tmpl.Connect(in, comp)
	tmpl.AddPort("src", in, nil, true)
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}
	sp.sched = NewScheduler(2, Cooperative)
	sp.sched.Start()
	sp.inst = NewInstance(tmpl, sp.sched)
	sp.producer = sp.inst.Task(in.ID)
	sp.ch = sp.inst.nodeIn[comp.ID][0]
	client, server := net.Pipe()
	sp.inst.Bind(0, server)
	sp.inst.Start()
	go func() {
		buf := make([]byte, 0, items*12)
		for i := 0; i < items; i++ {
			buf = fmt.Appendf(buf, "item-%06d\n", i)
		}
		client.Write(buf)
	}()
	t.Cleanup(func() {
		sp.release() // a failed test must not leave a worker blocked for Stop
		client.Close()
		sp.inst.Close()
		sp.sched.Stop()
	})
	return sp
}

// release unblocks the stalled consumer.
func (sp *stalledPipeline) release() { sp.openGate.Do(func() { close(sp.gate) }) }

// waitFull waits until the producer has filled the channel. The stalled
// consumer holds one value, which it may have popped before or after the
// producer stopped at HighWater, so the depth settles at HighWater or one
// below it.
func (sp *stalledPipeline) waitFull(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sp.ch.Len() < HighWater-1 {
		if time.Now().After(deadline) {
			t.Fatalf("channel never filled: len %d\n%s", sp.ch.Len(), sp.inst.DebugString())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackpressureParksProducer: a producer whose downstream channel is
// full parks instead of re-running. With the consumer stalled and about
// 10k items queued upstream, the input task runs at most a small constant
// number of times once the channel is full — one run per pump read that
// re-checks the full channel — where a yield-spinning producer would run
// tens of thousands of times in the same window.
func TestBackpressureParksProducer(t *testing.T) {
	const items = 10000
	sp := newStalledPipeline(t, items)
	sp.waitFull(t)
	full := sp.producer.Runs()
	time.Sleep(200 * time.Millisecond) // the window a spinning producer burns
	if runs := sp.producer.Runs() - full; runs > 16 {
		t.Fatalf("producer ran %d times against a full channel; want it parked (≤ 16)", runs)
	}
	if n := sp.ch.Len(); n < HighWater-1 || n > HighWater {
		t.Fatalf("channel depth %d while stalled, want HighWater (%d) or one below", n, HighWater)
	}
	sp.release()
	for i := 0; i < items; i++ {
		<-sp.got
	}
}

// TestBackpressureDrainDeliversInOrder: once the stalled consumer drains,
// the parked producer is woken at LowWater and every item arrives exactly
// once, in the order it was written.
func TestBackpressureDrainDeliversInOrder(t *testing.T) {
	const items = 10000
	sp := newStalledPipeline(t, items)
	sp.waitFull(t)
	sp.release()
	timeout := time.After(10 * time.Second)
	for i := 0; i < items; i++ {
		select {
		case line := <-sp.got:
			if want := fmt.Sprintf("item-%06d", i); line != want {
				t.Fatalf("item %d = %q, want %q", i, line, want)
			}
		case <-timeout:
			t.Fatalf("only %d of %d items arrived (lost wakeup?)\n%s", i, items, sp.inst.DebugString())
		}
	}
}

// TestParkStressCloseAndReset is the -race stress for producer parking.
// Three inputs fan in to one slow compute node, so their channels fill
// and the input tasks park, while the test shuts the instance down at a
// random moment (closing every connection under the parked producers)
// and then Resets it for the next round, as the graph pool does. Every
// round must finish — a lost wakeup leaves a producer parked forever and
// the instance unfinished — and afterwards every pooled region it took
// must be recycled: the global pool's outstanding count (refgets −
// refputs) returns to where it was before the test. Other tests share the
// pool, and a late release from one of them can only lower the count.
func TestParkStressCloseAndReset(t *testing.T) {
	const (
		inputs = 3
		items  = 3000 // per input: well past HighWater
	)
	rounds := 20
	if testing.Short() {
		rounds = 4
	}
	outstanding := func() int64 {
		s := buffer.Global.Stats()
		return int64(s.RefGets) - int64(s.RefPuts)
	}
	before := outstanding()

	tmpl := NewTemplate("fanin")
	var seen atomic.Int64
	comp := tmpl.AddCompute("slow", func(ctx *NodeCtx, v value.Value, _ int) {
		if seen.Add(1)%64 == 0 {
			runtime.Gosched() // slower than the producers: channels fill
		}
		ctx.Emit(0, v)
	})
	out := tmpl.AddOutput("out", lineCodec)
	tmpl.Connect(comp, out)
	for i := 0; i < inputs; i++ {
		in := tmpl.AddInput(fmt.Sprintf("in%d", i), lineCodec)
		tmpl.Connect(in, comp)
		tmpl.AddPort(fmt.Sprintf("src%d", i), in, nil, i == 0)
	}
	tmpl.AddPort("dst", nil, out, false)
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}
	sched := NewScheduler(2, Cooperative)
	sched.Start()
	defer sched.Stop()
	inst := NewInstance(tmpl, sched)

	payload := make([]byte, 0, items*12)
	for i := 0; i < items; i++ {
		payload = fmt.Appendf(payload, "item-%06d\n", i)
	}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < inputs; i++ {
			client, server := net.Pipe()
			inst.Bind(i, server)
			wg.Add(1)
			go func() {
				defer wg.Done()
				client.Write(payload) // fails once the instance closes
				client.Close()
			}()
		}
		sinkClient, sinkServer := net.Pipe()
		inst.Bind(inputs, sinkServer)
		wg.Add(1)
		go func() { // the output's peer: discard until closed
			defer wg.Done()
			buf := make([]byte, 32<<10)
			for {
				if _, err := sinkClient.Read(buf); err != nil {
					return
				}
			}
		}()
		inst.Start()
		// Close while producers are parked (or about to park, or already
		// done): the wakeups from Close and from the draining consumer
		// race the parks.
		time.Sleep(time.Duration(rng.Intn(3000)) * time.Microsecond)
		inst.Close()
		select {
		case <-inst.Finished():
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: instance never finished (lost wakeup)\n%s", r, inst.DebugString())
		}
		sinkClient.Close()
		wg.Wait()
		inst.Reset()
		for _, chs := range inst.nodeIn {
			for _, ch := range chs {
				ch.mu.Lock()
				parked := len(ch.parked)
				ch.mu.Unlock()
				if parked != 0 {
					t.Fatalf("round %d: Reset left %d parked producers", r, parked)
				}
			}
		}
	}

	deadline := time.Now().Add(2 * time.Second)
	for outstanding() > before {
		if time.Now().After(deadline) {
			t.Fatalf("region leak: %d regions outstanding, %d before the test", outstanding(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
