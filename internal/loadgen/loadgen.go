// Package loadgen implements the evaluation's traffic sources: an
// ApacheBench-style closed-loop HTTP client fleet (§6.2), a
// libmemcached-style binary-protocol client fleet, and the Hadoop wordcount
// dataset generator with mapper emitters.
package loadgen

import (
	"math/rand"
	"net"
	"sync"
	"time"

	"flick/internal/buffer"
	"flick/internal/grammar"
	"flick/internal/metrics"
	"flick/internal/netstack"
	"flick/internal/proto/hadoop"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
)

// Result aggregates one load-generation run.
type Result struct {
	// Requests completed successfully.
	Requests uint64
	// Errors counts failed requests (connect/read/write failures).
	Errors uint64
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Latency summarises per-request latency.
	Latency metrics.Snapshot
	// Bytes counts payload bytes received.
	Bytes uint64
}

// Throughput returns completed requests per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// MBps returns payload megabits per second.
func (r Result) Mbps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / 1e6 / r.Elapsed.Seconds()
}

// HTTPConfig parameterises an HTTP load run.
type HTTPConfig struct {
	// Transport carries the traffic.
	Transport netstack.Transport
	// Addr is the server/middlebox address.
	Addr string
	// Clients is the number of concurrent closed-loop clients
	// ("concurrent connections" on the Figure 4 x-axis).
	Clients int
	// Persistent selects HTTP keep-alive; non-persistent opens a fresh
	// TCP connection per request (Figure 4c/4d).
	Persistent bool
	// Duration bounds the run.
	Duration time.Duration
	// URI is the requested path.
	URI string
}

// RunHTTP drives the ApacheBench-model workload: each client issues
// back-to-back GETs, waiting for every response in full before the next
// request ("Clients send a single request and wait for a response before
// sending the next request").
func RunHTTP(cfg HTTPConfig) Result {
	if cfg.URI == "" {
		cfg.URI = "/index.html"
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	var (
		hist    metrics.Histogram
		reqs    metrics.Counter
		errs    metrics.Counter
		rxBytes metrics.Counter
		wg      sync.WaitGroup
	)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			httpClientLoop(cfg, deadline, &hist, &reqs, &errs, &rxBytes)
		}()
	}
	wg.Wait()
	return Result{
		Requests: reqs.Value(),
		Errors:   errs.Value(),
		Elapsed:  time.Since(start),
		Latency:  hist.Snapshot(),
		Bytes:    rxBytes.Value(),
	}
}

func httpClientLoop(cfg HTTPConfig, deadline time.Time,
	hist *metrics.Histogram, reqs, errs, rxBytes *metrics.Counter) {

	var (
		conn net.Conn
		q    = buffer.NewQueue(nil)
		dec  = phttp.ResponseFormat{}.NewDecoder()
		rbuf = make([]byte, 16<<10)
		wbuf []byte
	)
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for time.Now().Before(deadline) {
		if conn == nil {
			var err error
			conn, err = cfg.Transport.Dial(cfg.Addr)
			if err != nil {
				// Transient refusal (backlog overflow under churn): back
				// off briefly and retry; a closed-loop client must not
				// die for the rest of the run.
				errs.Inc()
				time.Sleep(time.Millisecond)
				continue
			}
			q.Reset()
			dec = phttp.ResponseFormat{}.NewDecoder()
		}
		t0 := time.Now()
		wbuf = phttp.BuildRequest(wbuf[:0], "GET", cfg.URI, "bench", cfg.Persistent, nil)
		if _, err := conn.Write(wbuf); err != nil {
			errs.Inc()
			conn.Close()
			conn = nil
			continue
		}
		body, ok := readFullResponse(conn, q, &dec, rbuf)
		if !ok {
			errs.Inc()
			conn.Close()
			conn = nil
			continue
		}
		hist.Record(time.Since(t0))
		reqs.Inc()
		rxBytes.Add(uint64(body))
		if !cfg.Persistent {
			conn.Close()
			conn = nil
		}
	}
}

// readFullResponse blocks until one complete response arrives on conn and
// returns its body size.
func readFullResponse(conn net.Conn, q *buffer.Queue, dec *grammar.StreamDecoder, rbuf []byte) (int, bool) {
	for {
		msg, ok, derr := (*dec).Decode(q)
		if derr != nil {
			return 0, false
		}
		if ok {
			n := int(msg.Field("content_length").AsInt())
			msg.Release() // recycle the response's pooled wire bytes
			return n, true
		}
		n, rerr := conn.Read(rbuf)
		if n > 0 {
			q.Append(rbuf[:n])
			continue
		}
		if rerr != nil {
			return 0, false
		}
	}
}

// MemcacheConfig parameterises a Memcached load run.
type MemcacheConfig struct {
	Transport netstack.Transport
	Addr      string
	// Clients is the concurrent client count (the paper uses 128).
	Clients int
	// Keys is the key-space size; requests draw keys uniformly.
	Keys int
	// GetKShare in [0,1] selects the fraction of GETK (cacheable)
	// requests; the rest are plain GETs.
	GetKShare float64
	Duration  time.Duration
}

// RunMemcache drives the libmemcached-model workload over persistent
// connections.
func RunMemcache(cfg MemcacheConfig) Result {
	if cfg.Keys <= 0 {
		cfg.Keys = 10000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	var (
		hist metrics.Histogram
		reqs metrics.Counter
		errs metrics.Counter
		rx   metrics.Counter
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			seq := NewMemcacheSeq(seed, cfg.Keys, cfg.GetKShare)
			raw, err := cfg.Transport.Dial(cfg.Addr)
			if err != nil {
				errs.Inc()
				return
			}
			mc := memcache.NewConn(raw)
			defer mc.Close()
			for time.Now().Before(deadline) {
				op, key := seq.Next()
				t0 := time.Now()
				resp, err := mc.RoundTrip(memcache.Request(op, key, nil))
				if err != nil {
					errs.Inc()
					return
				}
				hist.Record(time.Since(t0))
				reqs.Inc()
				rx.Add(uint64(resp.Field("value").ByteLen()))
				resp.Release() // recycle the response's pooled wire bytes
			}
		}(int64(c) + 1)
	}
	wg.Wait()
	return Result{
		Requests: reqs.Value(),
		Errors:   errs.Value(),
		Elapsed:  time.Since(start),
		Latency:  hist.Snapshot(),
		Bytes:    rx.Value(),
	}
}

// MemcacheSeq is the deterministic per-client request sequence of the
// libmemcached-model workload: given the same seed, key-space size and GETK
// share it yields the identical (opcode, key) stream, so benchmark runs are
// reproducible across PRs and load is comparable between systems.
type MemcacheSeq struct {
	rng       *rand.Rand
	keys      int
	getkShare float64
	keyBuf    []byte
}

// NewMemcacheSeq creates a sequence. keys must be positive.
func NewMemcacheSeq(seed int64, keys int, getkShare float64) *MemcacheSeq {
	if keys <= 0 {
		keys = 1
	}
	return &MemcacheSeq{rng: rand.New(rand.NewSource(seed)), keys: keys, getkShare: getkShare}
}

// Next returns the next request's opcode and key. The key slice is reused
// by the following Next call.
func (s *MemcacheSeq) Next() (op byte, key []byte) {
	s.keyBuf = appendKey(s.keyBuf[:0], s.rng.Intn(s.keys))
	op = byte(memcache.OpGet)
	if s.rng.Float64() < s.getkShare {
		op = memcache.OpGetK
	}
	return op, s.keyBuf
}

// appendKey renders "key-%06d" without fmt in the hot path.
func appendKey(dst []byte, n int) []byte {
	dst = append(dst, "key-"...)
	var tmp [8]byte
	i := len(tmp)
	for j := 0; j < 6; j++ {
		i--
		tmp[i] = byte('0' + n%10)
		n /= 10
	}
	return append(dst, tmp[i:]...)
}

// Key renders the i-th key of the preloaded key space ("key-%06d").
func Key(i int) string { return string(appendKey(nil, i)) }

// PreloadKeys returns the key/value set the Memcached backends are primed
// with so load-run GETs hit.
func PreloadKeys(keys int, valueSize int) map[string]string {
	kv := make(map[string]string, keys)
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = 'v'
	}
	for i := 0; i < keys; i++ {
		kv[string(appendKey(nil, i))] = string(val)
	}
	return kv
}

// WordDataset generates the wordcount inputs of §6.2: datasets "consisting
// of words of 8, 12 and 16 characters" with a high data-reduction ratio
// (few distinct words, many occurrences).
type WordDataset struct {
	Words [][]byte
}

// NewWordDataset builds a dataset with the given word length and number of
// distinct words.
func NewWordDataset(wordLen, distinct int, seed int64) *WordDataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &WordDataset{}
	for i := 0; i < distinct; i++ {
		w := make([]byte, wordLen)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		ds.Words = append(ds.Words, w)
	}
	return ds
}

// EmitterResult reports one mapper's emission.
type EmitterResult struct {
	Pairs uint64
	Bytes uint64
	// Counts[i] is how many pairs carried Words[i]: the per-word totals an
	// aggregator must reproduce.
	Counts []uint64
}

// RunMapper streams totalBytes of key/value pairs (word → "1") to the
// aggregator at full rate, modelling one Hadoop mapper's intermediate
// output.
func (ds *WordDataset) RunMapper(tr netstack.Transport, addr string, totalBytes int64, seed int64) (EmitterResult, error) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return EmitterResult{}, err
	}
	defer conn.Close()
	w := newCountingWriter(conn)
	hw := hadoop.NewWriter(w)
	rng := rand.New(rand.NewSource(seed))
	one := []byte("1")
	res := EmitterResult{Counts: make([]uint64, len(ds.Words))}
	for w.n < totalBytes {
		i := rng.Intn(len(ds.Words))
		if err := hw.Write(ds.Words[i], one); err != nil {
			res.Bytes = uint64(w.n)
			return res, err
		}
		res.Pairs++
		res.Counts[i]++
	}
	err = hw.Flush()
	res.Bytes = uint64(w.n)
	return res, err
}

// countingWriter tracks bytes written.
type countingWriter struct {
	conn net.Conn
	n    int64
}

func newCountingWriter(conn net.Conn) *countingWriter { return &countingWriter{conn: conn} }

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.conn.Write(p)
	w.n += int64(n)
	return n, err
}
