package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flick/internal/proto/memcache"
)

// phase is the outcome of one open-loop phase: request i was due at
// i/rate after the phase started, and its latency runs from that due time
// to the moment its checked response arrived.
type phase struct {
	rate     float64
	n        int
	lat      []int64 // ns, due → response; -1 when the request failed
	late     []int64 // ns, due → the write that carried it
	fails    int
	failWhy  string
	reqBytes int64
	rspBytes int64
	dur      time.Duration // schedule length, n/rate
}

func newPhase(rate float64, n int) *phase {
	ph := &phase{rate: rate, n: n, lat: make([]int64, n), late: make([]int64, n),
		dur: time.Duration(float64(n) / rate * 1e9)}
	for i := range ph.lat {
		ph.lat[i] = -1
	}
	return ph
}

func (ph *phase) due(i int) int64 { return int64(float64(i) * 1e9 / ph.rate) }

// fail records a failed request (first cause kept).
func (ph *phase) fail(mu *sync.Mutex, err error) {
	mu.Lock()
	ph.fails++
	if ph.failWhy == "" {
		ph.failWhy = err.Error()
	}
	mu.Unlock()
}

// completed returns the latencies of the requests that succeeded.
func (ph *phase) completed() []int64 {
	out := make([]int64, 0, ph.n)
	for _, l := range ph.lat {
		if l >= 0 {
			out = append(out, l)
		}
	}
	return out
}

// backlog counts requests due by the end of the schedule that had not been
// answered by then.
func (ph *phase) backlog() int {
	end := int64(ph.dur)
	c := 0
	for i, l := range ph.lat {
		if d := ph.due(i); d <= end && (l < 0 || d+l > end) {
			c++
		}
	}
	return c
}

// drainTimeout bounds how long a phase waits for its last responses.
const drainTimeout = 10 * time.Second

// pipe is one persistent client connection carrying pipelined requests.
type pipe struct {
	c   net.Conn
	acc []byte // bytes read but not yet parsed
}

// proto frames and checks responses on a pipelined connection.
type proto interface {
	// frame returns the length of the first complete response in p,
	// or 0 if p holds only a prefix.
	frame(p []byte) (int, error)
	// match returns the batch index the response answers; ordinal is its
	// position among the responses of this connection in this phase.
	match(b *batch, resp []byte, ordinal, conn, conns int) (int, error)
	check(b *batch, i int, resp []byte) error
}

// runPipelined sends b over pipes open-loop at rate: request i goes on
// pipe i%len(pipes) when due, every request due at the same time leaving
// in one write.
func runPipelined(pipes []*pipe, b *batch, rate float64, pr proto) *phase {
	ph := newPhase(rate, b.n())
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	t0 := time.Now().Add(time.Millisecond)
	deadline := t0.Add(ph.dur + drainTimeout)
	for c, p := range pipes {
		p.c.SetDeadline(deadline)
		wg.Add(2)
		go func(c int, p *pipe) {
			defer wg.Done()
			sl, err := newSleeper()
			if err != nil {
				ph.fail(&mu, err)
				return
			}
			defer sl.close()
			var wbuf []byte
			for i := c; i < ph.n; {
				if err := sl.until(t0, ph.due(i)); err != nil {
					ph.fail(&mu, err)
					return
				}
				now := int64(time.Since(t0))
				wbuf = wbuf[:0]
				for ; i < ph.n && ph.due(i) <= now; i += len(pipes) {
					wbuf = append(wbuf, b.req(i)...)
					ph.late[i] = now - ph.due(i)
				}
				if _, err := p.c.Write(wbuf); err != nil {
					return // the reader reports the missing responses
				}
				atomic.AddInt64(&ph.reqBytes, int64(len(wbuf)))
			}
		}(c, p)
		go func(c int, p *pipe) {
			defer wg.Done()
			want := (ph.n - c + len(pipes) - 1) / len(pipes)
			got := 0
			rbuf := make([]byte, 64<<10)
			for got < want {
				for len(p.acc) > 0 && got < want {
					n, err := pr.frame(p.acc)
					if err != nil {
						ph.fail(&mu, err)
						return
					}
					if n == 0 {
						break
					}
					resp := p.acc[:n]
					now := int64(time.Since(t0))
					i, err := pr.match(b, resp, got, c, len(pipes))
					got++
					atomic.AddInt64(&ph.rspBytes, int64(n))
					if err == nil {
						err = pr.check(b, i, resp)
					}
					if err != nil {
						ph.fail(&mu, err)
					} else {
						ph.lat[i] = now - ph.due(i)
					}
					p.acc = p.acc[n:]
				}
				if got == want {
					break
				}
				k, err := p.c.Read(rbuf)
				p.acc = append(p.acc, rbuf[:k]...)
				if err != nil {
					mu.Lock()
					if ph.failWhy == "" {
						ph.failWhy = fmt.Sprintf("read: %v", err)
					}
					mu.Unlock()
					return
				}
			}
			p.acc = append([]byte(nil), p.acc...) // drop the parsed prefix's backing array
		}(c, p)
	}
	wg.Wait()
	countMissing(ph)
	return ph
}

// countMissing turns requests that never got an answer into failures.
func countMissing(ph *phase) {
	ok := 0
	for _, l := range ph.lat {
		if l >= 0 {
			ok++
		}
	}
	if missing := ph.n - ok - ph.fails; missing > 0 {
		ph.fails += missing
		if ph.failWhy == "" {
			ph.failWhy = fmt.Sprintf("%d requests unanswered", missing)
		}
	}
}

// runConnPerRequest sends each request of b on its own TCP connection,
// open-loop at rate, with at most slots connections open at a time: a
// request due while every slot is busy waits, and that wait counts in its
// latency.
func runConnPerRequest(addr string, slots int, b *batch, rate float64, payload []byte) *phase {
	ph := newPhase(rate, b.n())
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
	)
	t0 := time.Now().Add(time.Millisecond)
	deadline := t0.Add(ph.dur + drainTimeout)
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sl, err := newSleeper()
			if err != nil {
				ph.fail(&mu, err)
				return
			}
			defer sl.close()
			rbuf := make([]byte, 4<<10)
			for {
				i := int(next.Add(1) - 1)
				if i >= ph.n {
					return
				}
				// A request picked up after its due time waited for a slot:
				// that wait is the system's, not the generator's lateness.
				if int64(time.Since(t0)) < ph.due(i) {
					if err := sl.until(t0, ph.due(i)); err != nil {
						ph.fail(&mu, err)
						continue
					}
					ph.late[i] = int64(time.Since(t0)) - ph.due(i)
				}
				resp, err := oneShot(addr, b.req(i), rbuf, deadline)
				now := int64(time.Since(t0))
				if err == nil {
					atomic.AddInt64(&ph.reqBytes, int64(len(b.req(i))))
					atomic.AddInt64(&ph.rspBytes, int64(len(resp)))
					var (
						status int
						body   []byte
					)
					if _, status, body, err = parseHTTP(resp); err == nil {
						err = checkHTTP(status, body, payload)
					}
				}
				if err != nil {
					ph.fail(&mu, err)
					continue
				}
				ph.lat[i] = now - ph.due(i)
			}
		}()
	}
	wg.Wait()
	countMissing(ph)
	return ph
}

// oneShot dials, writes req, reads one response and closes. The
// middlebox keeps the client connection open after answering a
// "Connection: close" request, so the client closes first.
func oneShot(addr string, req, rbuf []byte, deadline time.Time) ([]byte, error) {
	c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(deadline)
	if _, err := c.Write(req); err != nil {
		return nil, err
	}
	n := 0
	for {
		if n == len(rbuf) {
			return nil, errors.New("http response larger than the read buffer")
		}
		k, err := c.Read(rbuf[n:])
		n += k
		if m, _, _, perr := parseHTTP(rbuf[:n]); perr != nil || m > 0 {
			return rbuf[:n], perr
		}
		if err == io.EOF {
			return nil, errors.New("connection closed before a whole response")
		}
		if err != nil {
			return nil, err
		}
	}
}

// parseHTTP frames one HTTP/1.1 response at the start of p: it returns the
// response length (0 if p is a prefix), status and body.
func parseHTTP(p []byte) (n, status int, body []byte, err error) {
	end := bytes.Index(p, []byte("\r\n\r\n"))
	if end < 0 {
		return 0, 0, nil, nil
	}
	head := p[:end]
	line, rest, _ := bytes.Cut(head, []byte("\r\n"))
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, 0, nil, fmt.Errorf("http status line %.40q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("http status line %.40q", line)
	}
	clen := -1
	for len(rest) > 0 {
		var h []byte
		h, rest, _ = bytes.Cut(rest, []byte("\r\n"))
		name, val, ok := bytes.Cut(h, []byte(":"))
		if ok && bytes.EqualFold(bytes.TrimSpace(name), []byte("Content-Length")) {
			if clen, err = strconv.Atoi(string(bytes.TrimSpace(val))); err != nil {
				return 0, 0, nil, fmt.Errorf("http content-length %q", val)
			}
		}
	}
	if clen < 0 {
		return 0, 0, nil, errors.New("http response without content-length")
	}
	total := end + 4 + clen
	if len(p) < total {
		return 0, 0, nil, nil
	}
	return total, status, p[end+4 : total], nil
}

// httpProto: responses come back in request order on each connection.
type httpProto struct{ payload []byte }

func (httpProto) frame(p []byte) (int, error) {
	n, _, _, err := parseHTTP(p)
	return n, err
}

func (httpProto) match(_ *batch, _ []byte, ordinal, conn, conns int) (int, error) {
	return conn + ordinal*conns, nil
}

func (h httpProto) check(_ *batch, _ int, resp []byte) error {
	_, status, body, err := parseHTTP(resp)
	if err != nil {
		return err
	}
	return checkHTTP(status, body, h.payload)
}

// mcProto: responses carry the request's opaque (a cache hit may overtake
// an earlier miss).
type mcProto struct{}

func (mcProto) frame(p []byte) (int, error) {
	if len(p) < 24 {
		return 0, nil
	}
	if p[0] != memcache.MagicResponse {
		return 0, fmt.Errorf("mc response magic %#x", p[0])
	}
	n := 24 + int(binary.BigEndian.Uint32(p[8:]))
	if len(p) < n {
		return 0, nil
	}
	return n, nil
}

func (mcProto) match(b *batch, resp []byte, _, _, _ int) (int, error) {
	i := int(binary.BigEndian.Uint32(resp[12:])) - b.base
	if i < 0 || i >= b.n() {
		return 0, fmt.Errorf("mc response opaque %d outside the phase", i+b.base)
	}
	return i, nil
}

func (mcProto) check(b *batch, i int, resp []byte) error { return checkMC(b, i, resp) }
