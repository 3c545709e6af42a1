package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"testing"

	"flick/internal/loadgen"
	"flick/internal/proto/memcache"
)

func TestSameSeedSameStreams(t *testing.T) {
	for _, mk := range []func(int64) source{
		func(s int64) source { return newHTTPSource(s, false) },
		func(s int64) source { return newHTTPSource(s, true) },
		func(s int64) source { return newMCSource(s) },
	} {
		a, b, c := mk(7), mk(7), mk(8)
		for _, n := range []int{1, 1000, 5000} {
			ba, bb, bc := a.next(n), b.next(n), c.next(n)
			if !bytes.Equal(ba.data, bb.data) || !bytes.Equal(ba.op, bb.op) {
				t.Fatalf("seed 7 gave different %d-request batches", n)
			}
			if n > 1 && bytes.Equal(ba.data, bc.data) {
				t.Fatalf("seeds 7 and 8 gave identical %d-request batches", n)
			}
		}
	}
	ja, jb, jc := newJob(7, 2, 4096), newJob(7, 2, 4096), newJob(8, 2, 4096)
	for m := range ja.streams {
		if !bytes.Equal(ja.streams[m], jb.streams[m]) {
			t.Fatalf("seed 7 gave different mapper %d streams", m)
		}
		if bytes.Equal(ja.streams[m], jc.streams[m]) {
			t.Fatalf("seeds 7 and 8 gave identical mapper %d streams", m)
		}
	}
}

func TestJobTotalsMatchStreams(t *testing.T) {
	j := newJob(3, 2, 8192)
	got := map[string]int64{}
	pairs := 0
	for _, s := range j.streams {
		for len(s) > 0 {
			kl, vl := binary.BigEndian.Uint32(s), binary.BigEndian.Uint32(s[4:])
			if string(s[8+kl:8+kl+vl]) != "1" {
				t.Fatalf("pair value %q, want 1", s[8+kl:8+kl+vl])
			}
			got[string(s[8:8+kl])]++
			s = s[8+kl+vl:]
			pairs++
		}
	}
	if pairs != j.pairs {
		t.Fatalf("%d pairs encoded, job says %d", pairs, j.pairs)
	}
	if err := checkTotals(got, j.want); err != nil {
		t.Fatal(err)
	}
	got[string(j.streams[0][8:8+hadoopWordLen])]++
	if err := checkTotals(got, j.want); err == nil {
		t.Fatal("a wrong reducer total passed the check")
	}
}

// corruptingServer answers pipelined GETs with the origin payload, except
// that every nth response carries one flipped body byte.
func corruptingServer(t *testing.T, nth int) string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 0, 64<<10)
				rbuf := make([]byte, 16<<10)
				k := 0
				for {
					n, err := c.Read(rbuf)
					buf = append(buf, rbuf[:n]...)
					var out []byte
					for {
						i := bytes.Index(buf, []byte("\r\n\r\n"))
						if i < 0 {
							break
						}
						buf = buf[i+4:]
						body := httpPayload()
						if k++; k%nth == 0 {
							body[len(body)/2] ^= 0x20
						}
						out = append(out, "HTTP/1.1 200 OK\r\nContent-Length: 137\r\n\r\n"...)
						out = append(out, body...)
					}
					if len(out) > 0 {
						if _, werr := c.Write(out); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String()
}

func TestCorruptedResponseRaisesFailRatio(t *testing.T) {
	addr := corruptingServer(t, 5)
	var pipes []*pipe
	for i := 0; i < 2; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		pipes = append(pipes, &pipe{c: c})
	}
	b := newHTTPSource(1, false).next(400)
	ph := runPipelined(pipes, b, 20000, httpProto{payload: httpPayload()})
	// Each connection corrupts every 5th of its 200 responses.
	if ph.fails != 80 {
		t.Fatalf("fails = %d (%s), want 80 of %d", ph.fails, ph.failWhy, ph.n)
	}
	if got := len(ph.completed()); got != 320 {
		t.Fatalf("%d correct responses, want 320", got)
	}

	clean := corruptingServer(t, 1<<30)
	ph = runConnPerRequest(clean, 2, newHTTPSource(1, true).next(50), 5000, httpPayload())
	if ph.fails != 0 {
		t.Fatalf("clean server: %d fails (%s)", ph.fails, ph.failWhy)
	}
	bad := corruptingServer(t, 1)
	ph = runConnPerRequest(bad, 2, newHTTPSource(1, true).next(50), 5000, httpPayload())
	if ph.fails != 50 {
		t.Fatalf("corrupting server: %d fails, want 50", ph.fails)
	}
}

func TestCheckMC(t *testing.T) {
	src := newMCSource(1)
	var b *batch
	for b == nil || b.op[0] != memcache.OpGet {
		b = src.next(1)
	}
	resp := func(val []byte, status uint16) []byte {
		key := loadgen.Key(int(b.key[0]))
		r := make([]byte, 24)
		r[0], r[1] = memcache.MagicResponse, memcache.OpGet
		binary.BigEndian.PutUint16(r[2:], uint16(len(key)))
		binary.BigEndian.PutUint16(r[6:], status)
		binary.BigEndian.PutUint32(r[8:], uint32(len(key)+len(val)))
		return append(append(r, key...), val...)
	}
	if err := checkMC(b, 0, resp(mcValue(nil, int(b.key[0]), 3), memcache.StatusOK)); err != nil {
		t.Fatalf("correct GET response rejected: %v", err)
	}
	if err := checkMC(b, 0, resp(mcValue(nil, int(b.key[0])+1, 3), memcache.StatusOK)); err == nil {
		t.Fatal("a value naming another key passed the check")
	}
	if err := checkMC(b, 0, resp(nil, memcache.StatusKeyNotFound)); err == nil {
		t.Fatal("a miss passed the check")
	}
}

func TestParseHTTP(t *testing.T) {
	full := []byte("HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabcHTTP/1.1")
	n, status, body, err := parseHTTP(full)
	if err != nil || n != 41 || status != 200 || string(body) != "abc" {
		t.Fatalf("parseHTTP = %d %d %q %v", n, status, body, err)
	}
	if n, _, _, err := parseHTTP(full[:40]); n != 0 || err != nil {
		t.Fatalf("prefix: n=%d err=%v", n, err)
	}
	if _, _, _, err := parseHTTP([]byte("HTTP/1.1 200 OK\r\n\r\n")); err == nil {
		t.Fatal("a response without content-length was accepted")
	}
}

// The metric catalogue and workload list must be what BENCHMARK.json
// declares, since the result line carries exactly the declared metrics.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the catalogue %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Fatalf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		decl []struct{ Name, Unit string }
		cat  []metricDef
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.decl) != len(c.cat) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the catalogue %d", len(c.decl), len(c.cat))
		}
		for i, m := range c.decl {
			if m.Name != c.cat[i].name || m.Unit != c.cat[i].unit {
				t.Fatalf("metric %d: %s %s vs %s %s", i, m.Name, m.Unit, c.cat[i].name, c.cat[i].unit)
			}
		}
	}
}
