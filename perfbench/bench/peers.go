package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"flick/internal/backend"
	"flick/internal/netstack"
)

// peers are the fake origins, shards and reducer the middlebox talks to.
// They live in the bench process with the load, so the host process's
// counters hold the middlebox alone.
type peers struct {
	addrs []string
	http  []*backend.HTTPServer
	mc    []*backend.MemcachedServer
	sink  *sink
}

func startPeers(w *workload) (*peers, error) {
	ps := &peers{}
	tr := netstack.KernelTCP{}
	for i := 0; i < w.backends; i++ {
		switch w.proto {
		case protoHTTP:
			s, err := backend.NewHTTPServer(tr, "127.0.0.1:0", httpPayloadLen)
			if err != nil {
				ps.close()
				return nil, err
			}
			ps.http = append(ps.http, s)
			ps.addrs = append(ps.addrs, s.Addr())
		case protoMC:
			s, err := backend.NewMemcachedServer(tr, "127.0.0.1:0")
			if err != nil {
				ps.close()
				return nil, err
			}
			s.Preload(mcPreload())
			ps.mc = append(ps.mc, s)
			ps.addrs = append(ps.addrs, s.Addr())
		}
	}
	if w.proto == protoHadoop {
		s, err := newSink()
		if err != nil {
			return nil, err
		}
		ps.sink = s
		ps.addrs = []string{s.addr()}
	}
	return ps, nil
}

// originRequests is the total request count the origins or shards served.
func (ps *peers) originRequests() uint64 {
	var n uint64
	for _, s := range ps.http {
		n += s.Requests()
	}
	for _, s := range ps.mc {
		n += s.Requests()
	}
	return n
}

func (ps *peers) close() {
	for _, s := range ps.http {
		s.Close()
	}
	for _, s := range ps.mc {
		s.Close()
	}
	if ps.sink != nil {
		ps.sink.close()
	}
}

// sinkResult is what the reducer received over one aggregator connection.
type sinkResult struct {
	counts map[string]int64
	pairs  int
	end    time.Time
	err    error
}

// sink is the Hadoop reducer: each aggregation job arrives on its own
// connection, and the job's totals are delivered when it closes.
type sink struct {
	l    net.Listener
	out  chan sinkResult
	wg   sync.WaitGroup
	once sync.Once
}

func newSink() (*sink, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// One result per job, and jobs run one at a time; the slack absorbs a
	// stray connection without blocking the accept loop.
	s := &sink{l: l, out: make(chan sinkResult, 4)}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *sink) addr() string { return s.l.Addr().String() }

func (s *sink) accept() {
	defer s.wg.Done()
	for {
		c, err := s.l.Accept()
		if err != nil {
			close(s.out)
			return
		}
		res := readTotals(c)
		c.Close()
		s.out <- res
	}
}

func (s *sink) close() {
	s.once.Do(func() {
		s.l.Close()
		go func() {
			for range s.out { // unblock accept if a result is pending
			}
		}()
		s.wg.Wait()
	})
}

// readTotals decodes the reducer stream (u32 key length, u32 value
// length, key, decimal count) until the aggregator closes it.
func readTotals(c net.Conn) sinkResult {
	res := sinkResult{counts: map[string]int64{}}
	r := bufio.NewReaderSize(c, 64<<10)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err != io.EOF {
				res.err = fmt.Errorf("reducer stream: %w", err)
			}
			break
		}
		kl, vl := binary.BigEndian.Uint32(hdr[0:]), binary.BigEndian.Uint32(hdr[4:])
		if kl > 1<<10 || vl > 32 {
			res.err = fmt.Errorf("reducer pair with key length %d, value length %d", kl, vl)
			break
		}
		kv := make([]byte, kl+vl)
		if _, err := io.ReadFull(r, kv); err != nil {
			res.err = fmt.Errorf("reducer stream: %w", err)
			break
		}
		v, err := strconv.ParseInt(string(kv[kl:]), 10, 64)
		if err != nil {
			res.err = fmt.Errorf("reducer count %q: %w", kv[kl:], err)
			break
		}
		res.counts[string(kv[:kl])] += v
		res.pairs++
	}
	res.end = time.Now()
	return res
}

// jobRun is one aggregation job's outcome.
type jobRun struct {
	lat     time.Duration // first mapper dial → reducer stream closed
	inBytes int
	inPairs int
	outPair int
	err     error
}

// runJob streams j through the aggregator at addr from len(j.streams)
// concurrent mappers and checks the reducer's totals.
func runJob(addr string, s *sink, j *job) jobRun {
	start := time.Now()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		merr error
	)
	for _, st := range j.streams {
		wg.Add(1)
		go func(st []byte) {
			defer wg.Done()
			err := func() error {
				c, err := net.DialTimeout("tcp", addr, drainTimeout)
				if err != nil {
					return err
				}
				defer c.Close()
				c.SetDeadline(time.Now().Add(drainTimeout))
				_, err = c.Write(st)
				return err
			}()
			if err != nil {
				mu.Lock()
				merr = fmt.Errorf("mapper: %w", err)
				mu.Unlock()
			}
		}(st)
	}
	wg.Wait()
	jr := jobRun{inBytes: j.bytes(), inPairs: j.pairs, err: merr}
	select {
	case res, ok := <-s.out:
		if !ok {
			jr.err = fmt.Errorf("reducer closed")
			return jr
		}
		jr.lat = res.end.Sub(start)
		jr.outPair = res.pairs
		if jr.err == nil {
			jr.err = res.err
		}
		if jr.err == nil {
			jr.err = checkTotals(res.counts, j.want)
		}
	case <-time.After(drainTimeout):
		jr.err = fmt.Errorf("reducer got nothing within %v", drainTimeout)
	}
	return jr
}

// checkTotals compares the reducer's per-word totals with the counts the
// mappers emitted.
func checkTotals(got, want map[string]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("reducer got %d distinct words, mappers emitted %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			return fmt.Errorf("reducer total for %q is %d, mappers emitted %d", w, got[w], n)
		}
	}
	return nil
}
