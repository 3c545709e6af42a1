package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"flick/internal/loadgen"
	"flick/internal/proto/memcache"
)

// batch is one phase's pre-generated requests: every byte that goes on
// the wire is encoded here, before the phase's clock starts.
type batch struct {
	data []byte  // request wire images, back to back
	off  []int32 // request i is data[off[i]:off[i+1]]
	// Memcached only: what each request asked for.
	op  []byte
	key []int32
	// base is the run-wide index of request 0 (the memcached opaque of
	// request i is base+i).
	base int
}

func (b *batch) n() int           { return len(b.off) - 1 }
func (b *batch) req(i int) []byte { return b.data[b.off[i]:b.off[i+1]] }

// source yields a run's request stream batch by batch; the same seed gives
// byte-identical batches.
type source interface {
	next(n int) *batch
}

// httpSource renders GETs with a unique URI per request ("/r/<index>-<tag>"),
// the id the traced run joins a request's spans by.
type httpSource struct {
	rng   *rand.Rand
	seq   int
	close bool // one connection per request: ask the server to close
}

func newHTTPSource(seed int64, close bool) *httpSource {
	return &httpSource{rng: rand.New(rand.NewSource(seed)), close: close}
}

func (s *httpSource) next(n int) *batch {
	b := &batch{off: make([]int32, 0, n+1), base: s.seq}
	var tag [6]byte
	for i := 0; i < n; i++ {
		b.off = append(b.off, int32(len(b.data)))
		for j := range tag {
			tag[j] = byte('a' + s.rng.Intn(26))
		}
		b.data = append(b.data, "GET /r/"...)
		b.data = strconv.AppendInt(b.data, int64(s.seq), 10)
		b.data = append(b.data, '-')
		b.data = append(b.data, tag[:]...)
		b.data = append(b.data, " HTTP/1.1\r\nHost: bench\r\n"...)
		if s.close {
			b.data = append(b.data, "Connection: close\r\n"...)
		}
		b.data = append(b.data, "\r\n"...)
		s.seq++
	}
	b.off = append(b.off, int32(len(b.data)))
	return b
}

// Memcached workload shape: a 50%-hot zipf key stream over mcKeys keys,
// 10% SETs, values that name their key and version.
const (
	mcKeys     = 20000
	mcHotKeys  = 64
	mcHotShare = 0.5
	mcZipfS    = 1.1
	mcSetShare = 0.1
	mcValueLen = 64
)

type mcSource struct {
	keys *loadgen.HotKeySeq
	rng  *rand.Rand
	seq  int
}

func newMCSource(seed int64) *mcSource {
	return &mcSource{
		keys: loadgen.NewHotKeySeq(loadgen.HotKeyConfig{Seed: seed, Keys: mcKeys,
			HotShare: mcHotShare, HotKeys: mcHotKeys, ZipfS: mcZipfS}),
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
}

// mcValue renders the value stored under key k at version v: it starts
// with the key's name, so a GET can be checked against its key.
func mcValue(dst []byte, k, v int) []byte {
	start := len(dst)
	dst = append(dst, loadgen.Key(k)...)
	dst = append(dst, ":v"...)
	dst = strconv.AppendInt(dst, int64(v), 10)
	dst = append(dst, ':')
	for len(dst)-start < mcValueLen {
		dst = append(dst, '.')
	}
	return dst
}

func (s *mcSource) next(n int) *batch {
	b := &batch{off: make([]int32, 0, n+1), op: make([]byte, n), key: make([]int32, n), base: s.seq}
	var val []byte
	for i := 0; i < n; i++ {
		b.off = append(b.off, int32(len(b.data)))
		k := s.keys.NextIndex()
		op := byte(memcache.OpGet)
		val = val[:0]
		if s.rng.Float64() < mcSetShare {
			op = memcache.OpSet
			val = mcValue(val, k, s.seq)
		}
		b.data = appendMC(b.data, op, k, uint32(s.seq), val)
		b.op[i], b.key[i] = op, int32(k)
		s.seq++
	}
	b.off = append(b.off, int32(len(b.data)))
	return b
}

// appendMC renders a binary-protocol GET or SET of key k; a SET carries
// val and the 8 bytes of flags and expiry.
func appendMC(dst []byte, op byte, k int, opaque uint32, val []byte) []byte {
	key := loadgen.Key(k)
	extras := 0
	if op == memcache.OpSet {
		extras = 8
	}
	var hdr [24]byte
	hdr[0] = memcache.MagicRequest
	hdr[1] = op
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(key)))
	hdr[4] = byte(extras)
	binary.BigEndian.PutUint32(hdr[8:], uint32(extras+len(key)+len(val)))
	binary.BigEndian.PutUint32(hdr[12:], opaque)
	dst = append(dst, hdr[:]...)
	dst = append(dst, make([]byte, extras)...)
	dst = append(dst, key...)
	return append(dst, val...)
}

// mcPreload is what every shard holds before the run: version 0 of each key.
func mcPreload() map[string]string {
	kv := make(map[string]string, mcKeys)
	for k := 0; k < mcKeys; k++ {
		kv[loadgen.Key(k)] = string(mcValue(nil, k, 0))
	}
	return kv
}

// Hadoop workload shape: 12-character words, few distinct (a high
// reduction ratio, as in §6.2), each mapper replaying its own stream.
const (
	hadoopWordLen  = 12
	hadoopDistinct = 1000
)

// job is the pre-encoded input of one aggregation job: one stream per
// mapper and the per-word totals the reducer must receive.
type job struct {
	streams [][]byte
	pairs   int
	want    map[string]int64
}

func (j *job) bytes() int {
	n := 0
	for _, s := range j.streams {
		n += len(s)
	}
	return n
}

// newJob encodes mappers streams of about perMapper bytes each.
func newJob(seed int64, mappers, perMapper int) *job {
	rng := rand.New(rand.NewSource(seed))
	words := make([][]byte, hadoopDistinct)
	for i := range words {
		w := make([]byte, hadoopWordLen)
		for j := range w {
			w[j] = byte('a' + rng.Intn(26))
		}
		words[i] = w
	}
	j := &job{want: map[string]int64{}}
	for m := 0; m < mappers; m++ {
		buf := make([]byte, 0, perMapper+64)
		for len(buf) < perMapper {
			w := words[rng.Intn(len(words))]
			var hdr [8]byte
			binary.BigEndian.PutUint32(hdr[0:], uint32(len(w)))
			binary.BigEndian.PutUint32(hdr[4:], 1)
			buf = append(buf, hdr[:]...)
			buf = append(buf, w...)
			buf = append(buf, '1')
			j.want[string(w)]++
			j.pairs++
		}
		j.streams = append(j.streams, buf)
	}
	return j
}

// HTTP origin payload: what backend.NewHTTPServer serves, 137 bytes.
const httpPayloadLen = 137

func httpPayload() []byte {
	p := make([]byte, httpPayloadLen)
	for i := range p {
		p[i] = 'a' + byte(i%26)
	}
	return p
}

// checkHTTP verifies one response: status 200 and the origin's payload.
func checkHTTP(status int, body, payload []byte) error {
	if status != 200 {
		return fmt.Errorf("http status %d", status)
	}
	if !bytes.Equal(body, payload) {
		return fmt.Errorf("http body differs from the origin payload (%d bytes)", len(body))
	}
	return nil
}

// checkMC verifies the memcached response to request i of b.
func checkMC(b *batch, i int, resp []byte) error {
	if resp[0] != memcache.MagicResponse {
		return fmt.Errorf("mc magic %#x", resp[0])
	}
	if resp[1] != b.op[i] {
		return fmt.Errorf("mc opcode %#x for request opcode %#x", resp[1], b.op[i])
	}
	if st := binary.BigEndian.Uint16(resp[6:]); st != memcache.StatusOK {
		return fmt.Errorf("mc status %#x", st)
	}
	if b.op[i] != memcache.OpGet {
		return nil
	}
	keyLen := int(binary.BigEndian.Uint16(resp[2:]))
	val := resp[24+int(resp[4])+keyLen:]
	name := loadgen.Key(int(b.key[i]))
	if !bytes.HasPrefix(val, []byte(name+":v")) {
		return fmt.Errorf("mc GET %s returned a value naming another key: %.24q", name, val)
	}
	return nil
}
