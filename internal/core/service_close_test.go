package core

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"flick/internal/netstack"
	"flick/internal/value"
)

// Regression (PR 3): Service.Close used to close only the listener and the
// Shared accumulator, leaving every live PerConnection instance running —
// Platform.Close could then stop the scheduler under still-live graphs.
func TestServiceCloseClosesLiveInstances(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	svc, err := p.Deploy(ServiceConfig{
		Name:       "upper",
		ListenAddr: "close:live",
		Template:   echoTemplate(t),
		Dispatch:   PerConnection,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A client mid-conversation keeps its instance live.
	conn, err := u.Dial("close:live")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, conn, 1); got[0] != "HELLO" {
		t.Fatalf("got %q", got)
	}

	svc.Close()

	// The live instance must be shut down: its client connection closes
	// (EOF) instead of lingering until the peer hangs up.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var p1 [16]byte
	if _, err := conn.Read(p1[:]); err != io.EOF && !errors.Is(err, netstack.ErrClosed) {
		t.Fatalf("read after Service.Close = %v, want EOF (instance not closed)", err)
	}
	// And the live set drains.
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.DumpLive()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("instances still live after Close:\n%v", svc.DumpLive())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Regression (PR 3): a backend dial failing mid-BackendAddrs left the
// checked-out instance stranded — never started, never finished, never
// returned — leaking it from the graph pool and pinning it in the live
// set. The dispatcher must release it back to the pool cleanly.
func TestDispatchDialFailureReleasesInstance(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	svc, err := p.Deploy(ServiceConfig{
		Name:         "upper",
		ListenAddr:   "close:dialfail",
		Template:     echoTemplate(t),
		Dispatch:     PerConnection,
		BackendAddrs: map[int]string{0: "nowhere:0"}, // no listener: dial fails
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for i := 0; i < 3; i++ {
		conn, err := u.Dial("close:dialfail")
		if err != nil {
			t.Fatal(err)
		}
		// Dispatch fails on the backend dial; the client conn is dropped.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var b [8]byte
		if _, err := conn.Read(b[:]); err == nil {
			t.Fatal("dispatch with a dead backend produced bytes")
		}
		conn.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats := svc.Pool().Stats()
		live := len(svc.DumpLive())
		// One build for the first dispatch, then pool hits: the instance
		// came back after every failed dispatch.
		if live == 0 && stats.Builds == 1 && stats.Hits == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("instance leaked on dial failure: live=%d stats=%+v", live, stats)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// failWriteConn is a stub connection whose writes always fail: it serves
// one inbound message, then blocks until closed.
type failWriteConn struct {
	mu     sync.Mutex
	served bool
	closed chan struct{}
	once   sync.Once
}

func newFailWriteConn() *failWriteConn {
	return &failWriteConn{closed: make(chan struct{})}
}

func (c *failWriteConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	first := !c.served
	c.served = true
	c.mu.Unlock()
	if first {
		return copy(p, "hello\n"), nil
	}
	<-c.closed
	return 0, io.EOF
}

func (c *failWriteConn) Write(p []byte) (int, error) {
	return 0, errors.New("stub: write refused")
}

func (c *failWriteConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *failWriteConn) LocalAddr() net.Addr                { return nil }
func (c *failWriteConn) RemoteAddr() net.Addr               { return nil }
func (c *failWriteConn) SetDeadline(t time.Time) error      { return nil }
func (c *failWriteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *failWriteConn) SetWriteDeadline(t time.Time) error { return nil }

// Regression (PR 3): a write error on a primary-port output used to drop
// the connection silently — the instance learned of the dead client only
// via eventual peer EOF, lingering half-dead (inputs still parsing) until
// then. The flush failure must begin shutdown so the instance recycles
// promptly.
func TestOutputWriteErrorShutsDownInstance(t *testing.T) {
	sched := NewScheduler(2, Cooperative)
	sched.Start()
	defer sched.Stop()

	inst := NewInstance(echoTemplate(t), sched)
	conn := newFailWriteConn()
	inst.Bind(0, conn)
	inst.Start()

	// The stub feeds one line; the echoed reply hits the failing write.
	select {
	case <-inst.Finished():
	case <-time.After(5 * time.Second):
		t.Fatalf("instance still live %v after output write error:\n%s",
			5*time.Second, inst.DebugString())
	}
}

// slowRegisterConn is an event-driven stub whose SetReadableCallback
// blocks (when registering) until the instance it is bound to finishes or
// a grace period passes, simulating a dispatcher goroutine descheduled in
// the middle of Instance.Start. Reads report EOF once the conn is closed.
type slowRegisterConn struct {
	failWriteConn
	inst          *Instance
	finishedEarly chan bool
}

func (c *slowRegisterConn) SetReadableCallback(fn func()) {
	if fn == nil {
		return // beginShutdown unregistering
	}
	select {
	case <-c.inst.Finished():
		c.finishedEarly <- true
	case <-time.After(100 * time.Millisecond):
		c.finishedEarly <- false
	}
}

func (c *slowRegisterConn) TryRead(p []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, io.EOF
	default:
		return 0, nil
	}
}

// TestStartHoldsInstanceUntilReturn is the regression test for an
// instance recycled under Start: the tasks Start schedules first can run
// the whole binding to completion while Start is still registering later
// inputs, and the finished instance then went back to the pool (Reset,
// rebinding) while Start kept reading and writing its state. Start now
// holds a liveTasks count until it returns, so the instance cannot finish
// before that.
func TestStartHoldsInstanceUntilReturn(t *testing.T) {
	s := NewScheduler(2, Cooperative)
	s.Start()
	defer s.Stop()

	tmpl := NewTemplate("start")
	a := tmpl.AddInput("a", lineCodec)
	b := tmpl.AddInput("b", lineCodec)
	sink := tmpl.AddCompute("sink", func(*NodeCtx, value.Value, int) {})
	tmpl.Connect(a, sink)
	tmpl.Connect(b, sink)
	tmpl.AddPort("a", a, nil, true)
	tmpl.AddPort("b", b, nil, false)
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}
	inst := NewInstance(tmpl, s)
	client, server := net.Pipe()
	client.Close() // the primary input reads EOF at once and shuts down
	inst.Bind(0, server)
	slow := &slowRegisterConn{
		failWriteConn: failWriteConn{closed: make(chan struct{})},
		inst:          inst,
		finishedEarly: make(chan bool, 1),
	}
	inst.Bind(1, slow)

	inst.Start()
	if <-slow.finishedEarly {
		t.Fatal("instance finished while Start was still registering its inputs")
	}
	select {
	case <-inst.Finished():
	case <-time.After(5 * time.Second):
		t.Fatalf("instance never finished after Start returned\n%s", inst.DebugString())
	}
}
