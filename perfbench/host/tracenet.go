package main

import (
	"net"
	"sync/atomic"
	"time"

	"flick/internal/netstack"
	"flick/perfbench/wire"
)

// traceNet wraps the platform's transport and records one span per
// Accept, Dial, Read and Write, with a copy of the bytes moved, into
// buffers allocated once at start-up. Recording is off until start and
// costs one atomic load per call while off.
//
// Wrapped connections are plain net.Conns (not netstack.Readable), so the
// platform keeps its kernel-TCP pump path; WriteBatch keeps the single
// writev that net.Buffers makes on a *net.TCPConn.
type traceNet struct {
	inner netstack.Transport
	epoch time.Time

	on       atomic.Bool
	inflight atomic.Int64 // record calls between the on check and the span write
	ids      atomic.Uint32

	spans    []wire.Span
	n        atomic.Int64
	overflow atomic.Int64
	arena    []byte
	an       atomic.Int64
	dropped  atomic.Int64
}

func newTraceNet(inner netstack.Transport, spanCap, arenaCap int) *traceNet {
	return &traceNet{
		inner: inner,
		epoch: time.Now(),
		spans: make([]wire.Span, spanCap),
		arena: make([]byte, arenaCap),
	}
}

func (t *traceNet) now() int64 { return int64(time.Since(t.epoch)) }

// start clears the buffers and begins recording.
func (t *traceNet) start() {
	t.stop()
	t.n.Store(0)
	t.overflow.Store(0)
	t.an.Store(0)
	t.dropped.Store(0)
	t.on.Store(true)
}

// stop ends recording and waits for record calls already past the on
// check, so the buffers are stable afterwards.
func (t *traceNet) stop() {
	t.on.Store(false)
	for t.inflight.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
}

// write stops recording and writes the recorded spans and bytes to path.
func (t *traceNet) write(path string) error {
	t.stop()
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	an := t.an.Load()
	if an > int64(len(t.arena)) {
		an = int64(len(t.arena))
	}
	return wire.WriteTrace(path, t.spans[:n], t.arena[:an],
		uint64(t.overflow.Load()), uint64(t.dropped.Load()))
}

// record stores one span; bufs are the bytes the call moved.
func (t *traceNet) record(conn uint32, side, op uint8, start, end int64, nbytes int, bufs ...[]byte) {
	t.inflight.Add(1)
	defer t.inflight.Add(-1)
	if !t.on.Load() {
		return
	}
	off := int64(-1)
	if nbytes > 0 {
		o := t.an.Add(int64(nbytes)) - int64(nbytes)
		if o+int64(nbytes) <= int64(len(t.arena)) {
			off = o
			dst := t.arena[o : o+int64(nbytes)]
			for _, b := range bufs {
				dst = dst[copy(dst, b):]
				if len(dst) == 0 {
					break
				}
			}
		} else {
			t.dropped.Add(int64(nbytes))
		}
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.overflow.Add(1)
		return
	}
	t.spans[i] = wire.Span{Conn: conn, Side: side, Op: op, Bytes: int32(nbytes),
		Start: start, End: end, Off: off}
}

func (t *traceNet) Name() string { return "traced-" + t.inner.Name() }

func (t *traceNet) Listen(addr string) (net.Listener, error) {
	l, err := t.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &traceListener{Listener: l, t: t}, nil
}

func (t *traceNet) Dial(addr string) (net.Conn, error) {
	s := t.now()
	c, err := t.inner.Dial(addr)
	id := t.ids.Add(1)
	t.record(id, wire.SideUpstream, wire.OpDial, s, t.now(), 0)
	if err != nil {
		return nil, err
	}
	return &traceConn{Conn: c, t: t, id: id, side: wire.SideUpstream}, nil
}

type traceListener struct {
	net.Listener
	t *traceNet
}

func (l *traceListener) Accept() (net.Conn, error) {
	s := l.t.now()
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	id := l.t.ids.Add(1)
	l.t.record(id, wire.SideClient, wire.OpAccept, s, l.t.now(), 0)
	return &traceConn{Conn: c, t: l.t, id: id, side: wire.SideClient}, nil
}

type traceConn struct {
	net.Conn
	t    *traceNet
	id   uint32
	side uint8
}

func (c *traceConn) Read(p []byte) (int, error) {
	s := c.t.now()
	n, err := c.Conn.Read(p)
	c.t.record(c.id, c.side, wire.OpRead, s, c.t.now(), n, p[:n])
	return n, err
}

func (c *traceConn) Write(p []byte) (int, error) {
	s := c.t.now()
	n, err := c.Conn.Write(p)
	c.t.record(c.id, c.side, wire.OpWrite, s, c.t.now(), n, p[:n])
	return n, err
}

// WriteBatch implements netstack.BatchWriter with the same single vectored
// write the unwrapped connection gets from net.Buffers.
func (c *traceConn) WriteBatch(bufs [][]byte) (int64, error) {
	// net.Buffers.WriteTo consumes its slice; keep the segment list to
	// capture what was written.
	segs := append(make([][]byte, 0, len(bufs)), bufs...)
	s := c.t.now()
	nb := net.Buffers(bufs)
	n, err := nb.WriteTo(c.Conn)
	c.t.record(c.id, c.side, wire.OpWrite, s, c.t.now(), int(n), segs...)
	return n, err
}
