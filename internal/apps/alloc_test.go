package apps

import (
	"net"
	"sync"
	"testing"
	"time"

	"flick/internal/core"
	"flick/internal/proto/memcache"
)

// feedConn is an event-driven test connection: the test hands it one
// message at a time (feed), the instance's input task drains it with
// TryRead, and every batched write an output task makes is reported on
// wrote. Nothing in it allocates per message.
type feedConn struct {
	mu      sync.Mutex
	pending []byte
	cb      func()
	wrote   chan struct{}
}

func (c *feedConn) feed(msg []byte) {
	c.mu.Lock()
	c.pending = msg
	cb := c.cb
	c.mu.Unlock()
	cb()
}

func (c *feedConn) SetReadableCallback(fn func()) {
	c.mu.Lock()
	c.cb = fn
	c.mu.Unlock()
}

func (c *feedConn) TryRead(p []byte) (int, error) {
	c.mu.Lock()
	n := copy(p, c.pending)
	c.pending = c.pending[n:]
	c.mu.Unlock()
	return n, nil
}

func (c *feedConn) WriteBatch(bufs [][]byte) (int64, error) {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	c.signal()
	return n, nil
}

func (c *feedConn) Write(p []byte) (int, error) {
	c.signal()
	return len(p), nil
}

// signal reports a write without ever blocking the writing worker: a
// worker stuck on a full channel would hang Scheduler.Stop.
func (c *feedConn) signal() {
	select {
	case c.wrote <- struct{}{}:
	default:
	}
}

func (c *feedConn) Read([]byte) (int, error)         { select {} }
func (c *feedConn) Close() error                     { return nil }
func (c *feedConn) LocalAddr() net.Addr              { return nil }
func (c *feedConn) RemoteAddr() net.Addr             { return nil }
func (c *feedConn) SetDeadline(time.Time) error      { return nil }
func (c *feedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *feedConn) SetWriteDeadline(time.Time) error { return nil }

// raceDetector is set by race_test.go in -race builds.
var raceDetector bool

// allocsPerForward runs svc's compiled graph under a two-worker scheduler
// with every port bound to a feedConn, and reports the heap allocations
// per client request forwarded to a backend: the client input's decode
// and push, the compiled routing stage, the backend output's encode and
// flush, and every scheduler activation in between.
func allocsPerForward(t *testing.T, svc *Service, req []byte) float64 {
	t.Helper()
	if raceDetector {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sched := core.NewScheduler(2, core.Cooperative)
	sched.Start()
	defer sched.Stop()
	inst := core.NewInstance(svc.Graph.Template, sched)
	client := &feedConn{wrote: make(chan struct{}, 1)}
	backend := make(chan struct{}, 1) // every backend output reports here
	for i := range svc.Graph.Template.Ports() {
		inst.Bind(i, &feedConn{wrote: backend})
	}
	cport, err := svc.Graph.PortIndex(svc.clientChannel)
	if err != nil {
		t.Fatal(err)
	}
	inst.Bind(cport, client)
	inst.Start()
	defer inst.Close()

	// One deadline for the whole run: a timer per request would be the
	// only allocation measured.
	stuck := time.NewTimer(time.Minute)
	defer stuck.Stop()
	forward := func() {
		client.feed(req)
		select {
		case <-backend:
		case <-stuck.C:
			t.Fatalf("request never reached a backend\n%s", inst.DebugString())
		}
	}
	for i := 0; i < 200; i++ { // warm pools, frames and queues
		forward()
	}
	return testing.AllocsPerRun(1000, forward)
}

// TestCompiledHTTPLBRouteZeroAlloc is the allocation gate for the
// compiled httplb route stage running under the scheduler: forwarding a
// keep-alive request from the client to a backend allocates nothing.
func TestCompiledHTTPLBRouteZeroAlloc(t *testing.T) {
	svc, err := HTTPLoadBalancer(2)
	if err != nil {
		t.Fatal(err)
	}
	req := []byte("GET /index.html HTTP/1.1\r\nHost: lb\r\n\r\n")
	if n := allocsPerForward(t, svc, req); n != 0 {
		t.Fatalf("httplb forward allocates %.2f/request, want 0", n)
	}
}

// TestCompiledMemcachedRouteZeroAlloc is the same gate for the compiled
// memcachedproxy routing stage (hash(key) mod len(backends)).
func TestCompiledMemcachedRouteZeroAlloc(t *testing.T) {
	svc, err := MemcachedProxy(2)
	if err != nil {
		t.Fatal(err)
	}
	req, err := memcache.Codec.Encode(nil, memcache.Request(memcache.OpGetK, []byte("key-000042"), nil))
	if err != nil {
		t.Fatal(err)
	}
	if n := allocsPerForward(t, svc, req); n != 0 {
		t.Fatalf("memcachedproxy forward allocates %.2f/request, want 0", n)
	}
}
