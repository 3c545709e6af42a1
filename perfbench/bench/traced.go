package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"flick/internal/buffer"
	"flick/internal/grammar"
	"flick/internal/proto/hadoop"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
	"flick/internal/upstream"
	"flick/internal/value"
	"flick/perfbench/wire"
)

// layers runs one untraced pass and one traced pass and derives the
// per-layer metrics from the traced pass's reference window: spans and
// captured bytes from the wrapped transport, the host's public counters
// at the window's start and end, and a CPU profile.
func (r *runner) layers() (map[string]float64, error) {
	if err := r.init(); err != nil {
		return nil, err
	}
	defer r.peers.close()
	vals := map[string]float64{}
	// Two passes, each half as long as an end-to-end run's, keep a traced
	// run about as long as an untraced one.
	r.seconds /= 2
	untraced, err := r.pass(false, nil)
	if err != nil {
		return nil, err
	}
	tp, err := r.pass(true, vals)
	if err != nil {
		return nil, err
	}
	vals["trace.cpu_us_per_op"] = tp.cpuUs
	vals["trace.untraced_cpu_us_per_op"] = untraced.cpuUs
	vals["trace.capacity_rps"] = tp.capacity
	vals["trace.untraced_capacity_rps"] = untraced.capacity
	vals["trace.cpu_overhead"] = tp.cpuUs/untraced.cpuUs - 1
	r.diag["fail_ratio"] = float64(r.failed) / float64(max(1, r.attempted))
	if vals["trace.span_overflows"] != 0 {
		r.wrong = fmt.Sprintf("span buffer overflowed (%v spans lost): the traced window is unusable", vals["trace.span_overflows"])
	}
	return vals, nil
}

// passStats is what the traced/untraced comparison needs from a pass.
type passStats struct {
	cpuUs    float64
	capacity float64
}

// pass runs warm-up, the reference window and the capacity steps (jobs
// for Hadoop) on a fresh host. With traced set, the host records spans and
// a CPU profile over the reference window and the per-layer metrics go
// into vals.
func (r *runner) pass(traced bool, vals map[string]float64) (*passStats, error) {
	h, err := startHost(r.hostBin, r.hostArgs(traced))
	if err != nil {
		return nil, err
	}
	defer h.kill()
	defer r.closePipes()
	if r.w.load == loadPipelined {
		if err := r.dial(h.addr); err != nil {
			return nil, err
		}
	}
	// Warm-up fills the upstream pool and the cache before the window.
	if r.w.load == loadJobs {
		_, err = r.jobs(h, 0, nil)
	} else {
		_, err = r.phase(h.addr, r.w.refRate, r.seconds*warmup)
	}
	if err != nil {
		return nil, err
	}
	tag := "untraced"
	if traced {
		tag = "traced"
	}
	prof := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", r.w.name, r.seed))
	tfile := filepath.Join(r.outDir, fmt.Sprintf("%s-seed%d.trace", r.w.name, r.seed))
	var s0, s1 wire.Snapshot
	org0, sets0 := r.peers.originRequests(), r.sets
	if traced {
		if s0, err = h.snap(); err != nil {
			return nil, err
		}
		for _, c := range []string{wire.CmdTraceStart, wire.CmdProfStart + " " + prof} {
			if err := h.ok(c); err != nil {
				return nil, err
			}
		}
	}
	ps := &passStats{}
	var (
		ops int
		ref *refStats
		js  []jobRun
	)
	if r.w.load == loadJobs {
		if js, ps.cpuUs, err = r.hostJobs(h, r.seconds*refShare); err != nil {
			return nil, err
		}
		for _, j := range js {
			ops += j.inPairs
		}
	} else {
		if ref, err = r.reference(h); err != nil {
			return nil, err
		}
		ops = ref.ops
		ps.cpuUs = ref.cpuUs
		r.diag[tag+"_ref_p50_us"], r.diag[tag+"_ref_p99_us"] = ref.p50, ref.p99
	}
	if traced {
		for _, c := range []string{wire.CmdProfStop, wire.CmdTraceStop + " " + tfile} {
			if err := h.ok(c); err != nil {
				return nil, err
			}
		}
		if s1, err = h.snap(); err != nil {
			return nil, err
		}
		if err := r.layerMetrics(vals, ops, r.sets-sets0, s0, s1, r.peers.originRequests()-org0, tfile, prof); err != nil {
			return nil, err
		}
	}
	// Capacity with the same instrumentation; a traced host records every
	// step afresh so its buffers never fill.
	var before func() error
	if traced {
		before = func() error { return h.ok(wire.CmdTraceStart) }
	}
	if r.w.load == loadJobs {
		js, err := r.jobs(h, r.seconds*capShare, before)
		if err != nil {
			return nil, err
		}
		_, ps.capacity, _, _, _, _ = jobStats(js)
	} else {
		capRate, _, steps, err := r.capacity(h, before)
		r.diag[tag+"_capacity_steps"] = steps
		if err != nil {
			return nil, err
		}
		ps.capacity = capRate
	}
	return ps, h.stop()
}

// layerMetrics fills vals from one traced reference window.
func (r *runner) layerMetrics(vals map[string]float64, ops, writes int, s0, s1 wire.Snapshot,
	originReqs uint64, tfile, prof string) error {
	d := func(k string) float64 { return s1.M[k] - s0.M[k] }
	per := func(x float64) float64 { return x / float64(max(1, ops)) }
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(ns float64) float64 { return ns / 1e3 }

	tr, err := wire.ReadTrace(tfile)
	if err != nil {
		return err
	}
	vals["trace.span_overflows"] = float64(tr.Overflow)
	r.diag["trace_spans"] = len(tr.Spans)
	r.diag["trace_uncaptured_bytes"] = tr.Dropped
	sp := analyze(tr, r.w.proto)
	vals["netstack.client_reads_per_op"] = per(float64(sp.clientReads))
	vals["netstack.client_writes_per_op"] = per(float64(sp.clientWrites))
	vals["netstack.upstream_writes_per_op"] = per(float64(sp.upWrites))
	vals["netstack.upstream_reads_per_op"] = per(float64(sp.upReads))
	vals["netstack.write_busy_us_per_op"] = per(us(float64(sp.writeBusy)))
	vals["netstack.accepts_per_op"] = per(float64(sp.accepts))
	vals["netstack.upstream_dials"] = float64(sp.dials)
	vals["netstack.accept_to_first_write_p50_us"] = p50us(sp.acceptToWrite)

	vals["core.activations_per_op"] = per(d("sched.executed"))
	vals["core.wakeups_per_op"] = per(d("sched.wakeups"))
	vals["core.parks_per_op"] = per(d("sched.parks"))
	vals["core.steals_per_op"] = per(d("sched.stolen"))
	vals["core.inbox_overflows"] = d("sched.overflow")
	vals["core.pool_builds_per_conn"] = div(d("pool.builds"), float64(sp.accepts))
	vals["core.decode_to_flush_p50_us"] = us(s1.M["lat.p50_ns"])
	vals["core.decode_to_flush_p99_us"] = us(s1.M["lat.p99_ns"])
	vals["core.ingress_p50_us"] = p50us(sp.ingress)
	vals["core.egress_p50_us"] = p50us(sp.egress)
	vals["core.self_p50_us_derived"] = p50us(sp.self)
	vals["trace.joined_share"] = div(float64(sp.joined), float64(ops))

	for k, v := range replayCodecs(sp, r.w.proto) {
		vals[k] = v
	}

	vals["upstream.rt_p50_us"] = us(s1.M["up.rt_p50_ns"])
	vals["upstream.rt_p99_us"] = us(s1.M["up.rt_p99_ns"])
	vals["upstream.wait_p50_us"] = p50us(sp.wait)
	vals["upstream.reqs_per_op"] = per(float64(originReqs))
	vals["upstream.dials"] = d("up.dials")
	vals["upstream.redials"] = d("up.redials")
	vals["upstream.failfast"] = d("up.failfast")
	vals["upstream.conns"] = s1.M["up.conns"]

	hits, misses := d("cache.hits"), d("cache.misses")
	vals["cache.hit_ratio"] = div(hits, hits+misses)
	vals["cache.hit_p50_us"] = us(s1.M["cache.hit_p50_ns"])
	vals["cache.miss_p50_us"] = us(s1.M["cache.miss_p50_ns"])
	vals["cache.hit_serve_p50_us"] = p50us(sp.hitServe)
	vals["cache.coalesced_per_miss"] = div(d("cache.coalesced"), misses)
	vals["cache.invalidations_per_write"] = div(d("cache.invalidations"), float64(writes))
	vals["cache.evictions_per_op"] = per(d("cache.evictions"))
	vals["cache.aborts"] = d("cache.aborts")
	vals["cache.bytes_resident"] = s1.M["cache.bytes"]

	vals["buffer.views_per_op"] = per(d("buf.views"))
	vals["buffer.coalesced_per_op"] = per(d("buf.coalesced"))
	vals["buffer.misses_per_op"] = per(d("buf.misses"))
	vals["buffer.oversized"] = d("buf.oversized")

	vals["runtime.allocs_per_op"] = per(d("rt.allocs"))
	vals["runtime.alloc_bytes_per_op"] = per(d("rt.alloc_bytes"))
	vals["runtime.gc_cycles_per_10k_op"] = per(d("rt.gc_cycles")) * 1e4
	vals["runtime.gc_pause_p99_us"] = s1.GCPause.Quantile(s0.GCPause, 0.99) * 1e6

	shares, err := cpuShares(prof)
	if err != nil {
		return err
	}
	for _, m := range []string{"core", "compiler", "proto", "upstream", "cache", "buffer", "netstack", "runtime", "other"} {
		vals["cpu_share."+m] = shares[m]
	}
	vals["compiler.cpu_share"] = shares["compiler"]
	return nil
}

func p50us(xs []int64) float64 { return float64(wire.Quantiles(xs, 0.5)[0]) / 1e3 }

// stream is one direction of one traced connection: the bytes it moved
// and, per span, the cumulative end offset of that span's bytes.
type stream struct {
	data  []byte
	ends  []int
	spans []wire.Span
	trunc bool // a span's bytes were not captured; data stops before it
}

// at returns the span that moved byte pos.
func (s *stream) at(pos int) wire.Span {
	return s.spans[sort.SearchInts(s.ends, pos+1)]
}

// spanStats is what the span analysis yields for one window.
type spanStats struct {
	clientReads, clientWrites, upReads, upWrites int
	accepts, dials                               int
	writeBusy                                    int64
	acceptToWrite                                []int64
	ingress, egress, wait, self, hitServe        []int64
	joined                                       int

	// Framed messages for codec replay.
	reqs, resps [][]byte
}

// analyze rebuilds every connection's byte streams from the spans,
// frames the messages with the public framers, joins each request's
// spans by the id the generator stamped (the URI for HTTP, the opaque for
// memcached) and matches upstream responses to requests by their order on
// each upstream socket.
func analyze(tr *wire.Trace, p protoKind) *spanStats {
	st := &spanStats{}
	reads, writes := map[uint32]*stream{}, map[uint32]*stream{}
	side := map[uint32]uint8{}
	acceptEnd := map[uint32]int64{}
	firstWrite := map[uint32]int64{}
	for _, s := range tr.Spans {
		side[s.Conn] = s.Side
		var m map[uint32]*stream
		switch s.Op {
		case wire.OpAccept:
			st.accepts++
			acceptEnd[s.Conn] = s.End
			continue
		case wire.OpDial:
			st.dials++
			continue
		case wire.OpRead:
			m = reads
			if s.Side == wire.SideClient {
				st.clientReads++
			} else {
				st.upReads++
			}
		case wire.OpWrite:
			m = writes
			st.writeBusy += s.End - s.Start
			if s.Side == wire.SideClient {
				st.clientWrites++
				if _, ok := firstWrite[s.Conn]; !ok {
					firstWrite[s.Conn] = s.Start
				}
			} else {
				st.upWrites++
			}
		}
		if s.Bytes <= 0 {
			continue
		}
		cs := m[s.Conn]
		if cs == nil {
			cs = &stream{}
			m[s.Conn] = cs
		}
		if cs.trunc || s.Off < 0 {
			cs.trunc = true
			continue
		}
		cs.data = append(cs.data, tr.Arena[s.Off:s.Off+int64(s.Bytes)]...)
		cs.ends = append(cs.ends, len(cs.data))
		cs.spans = append(cs.spans, s)
	}
	for c, t := range acceptEnd {
		if w, ok := firstWrite[c]; ok {
			st.acceptToWrite = append(st.acceptToWrite, w-t)
		}
	}

	type times struct{ in, upW, upR, out int64 }
	reqs := map[string]*times{}
	get := func(id string) *times {
		t := reqs[id]
		if t == nil {
			t = &times{}
			reqs[id] = t
		}
		return t
	}
	for c, cs := range reads {
		switch {
		case p == protoHadoop:
			for _, f := range frames(cs.data, hadoopFrame) {
				st.reqs = append(st.reqs, cs.data[f[0]:f[1]])
			}
		case side[c] == wire.SideClient:
			// Requests from the generator: arrival is the end of the read
			// that delivered the last byte.
			var ids []string
			for _, f := range frames(cs.data, reqFramer(p)) {
				msg := cs.data[f[0]:f[1]]
				st.reqs = append(st.reqs, msg)
				id := msgID(p, msg)
				ids = append(ids, id)
				get(id).in = cs.at(f[1] - 1).End
			}
			// Responses to this client: HTTP answers in order, memcached
			// by opaque.
			if ws := writes[c]; ws != nil {
				for k, f := range frames(ws.data, respFramer(p, nil)) {
					msg := ws.data[f[0]:f[1]]
					id := msgID(p, msg)
					if p == protoHTTP && k < len(ids) {
						id = ids[k]
					}
					if t := reqs[id]; t != nil && t.out == 0 {
						t.out = ws.at(f[0]).Start
					}
				}
			}
		}
	}
	for c, ws := range writes {
		if side[c] != wire.SideUpstream || p == protoHadoop {
			continue
		}
		// Requests forwarded upstream, then the responses read back on
		// the same socket, matched by order.
		var ids []string
		var ctxs []upstream.Context
		q := queueOf(ws.data)
		for off := 0; off < len(ws.data); {
			n, ctx, err := reqFramer(p)(q, off)
			if err != nil || n == 0 {
				break
			}
			id := msgID(p, ws.data[off:off+n])
			ids = append(ids, id)
			ctxs = append(ctxs, ctx)
			get(id).upW = ws.at(off).Start
			off += n
		}
		q.Reset()
		rs := reads[c]
		if rs == nil {
			continue
		}
		for k, f := range frames(rs.data, respFramer(p, ctxs)) {
			st.resps = append(st.resps, rs.data[f[0]:f[1]])
			if k < len(ids) {
				get(ids[k]).upR = rs.at(f[1] - 1).End
			}
		}
	}
	for _, t := range reqs {
		if t.in == 0 || t.out == 0 {
			continue
		}
		st.joined++
		if t.upW == 0 {
			// Served without an upstream request of its own: a cache hit
			// or a coalesced follower (only the cached workload has them).
			if p == protoMC {
				st.hitServe = append(st.hitServe, t.out-t.in)
			}
			continue
		}
		if t.upR == 0 {
			continue
		}
		st.ingress = append(st.ingress, t.upW-t.in)
		st.wait = append(st.wait, t.upR-t.upW)
		st.egress = append(st.egress, t.out-t.upR)
		st.self = append(st.self, (t.out-t.in)-(t.upR-t.upW))
	}
	return st
}

func queueOf(data []byte) *buffer.Queue {
	q := buffer.NewQueue(nil)
	q.Append(data)
	return q
}

// frames splits data into messages with a request-style framer.
func frames(data []byte, f upstream.RequestFramer) [][2]int {
	var out [][2]int
	q := queueOf(data)
	defer q.Reset()
	for off := 0; off < len(data); {
		n, _, err := f(q, off)
		if err != nil || n == 0 {
			break
		}
		out = append(out, [2]int{off, off + n})
		off += n
	}
	return out
}

func reqFramer(p protoKind) upstream.RequestFramer {
	if p == protoMC {
		return memcache.FrameRequestLen
	}
	return phttp.FrameRequestLen
}

// respFramer adapts a response framer to frames; ctxs are the contexts
// of the requests the responses answer, in order (nil: plain GETs).
func respFramer(p protoKind, ctxs []upstream.Context) upstream.RequestFramer {
	k := 0
	return func(q *buffer.Queue, from int) (int, upstream.Context, error) {
		var ctx upstream.Context
		if k < len(ctxs) {
			ctx = ctxs[k]
		}
		var (
			n   int
			err error
		)
		if p == protoMC {
			n, err = memcache.FrameResponseLen(q, from, ctx)
		} else {
			n, err = phttp.FrameResponseLen(q, from, ctx)
		}
		if n > 0 {
			k++
		}
		return n, 0, err
	}
}

func hadoopFrame(q *buffer.Queue, from int) (int, upstream.Context, error) {
	var hdr [8]byte
	if q.PeekAt(hdr[:], from) < 8 {
		return 0, 0, nil
	}
	n := 8 + int(binary.BigEndian.Uint32(hdr[0:])) + int(binary.BigEndian.Uint32(hdr[4:]))
	if q.Len()-from < n {
		return 0, 0, nil
	}
	return n, 0, nil
}

// msgID is the id the generator stamped on a request: the URI for HTTP,
// the opaque for memcached (responses carry it too).
func msgID(p protoKind, msg []byte) string {
	if p == protoMC {
		if len(msg) < 16 {
			return ""
		}
		return strconv.FormatUint(uint64(binary.BigEndian.Uint32(msg[12:])), 10)
	}
	_, rest, _ := bytes.Cut(msg, []byte(" "))
	uri, _, _ := bytes.Cut(rest, []byte(" "))
	return string(uri)
}

// replayCodecs times the public decoders and encoders over the messages
// captured in the window.
func replayCodecs(sp *spanStats, p protoKind) map[string]float64 {
	out := map[string]float64{}
	switch p {
	case protoHTTP:
		dq, eq, aq := replay(phttp.RequestFormat{}, sp.reqs)
		ds, es, as := replay(phttp.ResponseFormat{}, sp.resps)
		out["proto.http_req_decode_ns"], out["proto.http_req_encode_ns"] = dq, eq
		out["proto.http_resp_decode_ns"], out["proto.http_resp_encode_ns"] = ds, es
		out["proto.http_allocs_per_msg"] = weighted(aq, len(sp.reqs), as, len(sp.resps))
	case protoMC:
		dq, eq, aq := replay(memcache.Codec, sp.reqs)
		ds, es, as := replay(memcache.Codec, sp.resps)
		out["proto.mc_req_decode_ns"], out["proto.mc_resp_decode_ns"] = dq, ds
		out["proto.mc_encode_ns"] = weighted(eq, len(sp.reqs), es, len(sp.resps))
		out["proto.mc_allocs_per_msg"] = weighted(aq, len(sp.reqs), as, len(sp.resps))
	case protoHadoop:
		out["proto.hadoop_decode_ns"], out["proto.hadoop_encode_ns"], out["proto.hadoop_allocs_per_msg"] =
			replay(hadoop.Codec, sp.reqs)
	}
	return out
}

func weighted(a float64, na int, b float64, nb int) float64 {
	if na+nb == 0 {
		return 0
	}
	return (a*float64(na) + b*float64(nb)) / float64(na+nb)
}

// replayMax bounds the messages replayed per codec.
const replayMax = 200000

// replay decodes msgs from one byte queue and re-encodes each decoded
// message, three times, and returns the fastest pass's decode and encode
// ns per message and the allocations per message (decode plus encode).
func replay(f grammar.WireFormat, msgs [][]byte) (decNs, encNs, allocs float64) {
	if len(msgs) > replayMax {
		msgs = msgs[:replayMax]
	}
	if len(msgs) == 0 {
		return 0, 0, 0
	}
	var all []byte
	for _, m := range msgs {
		all = append(all, m...)
	}
	vals := make([]value.Value, 0, len(msgs))
	dst := make([]byte, 0, 64<<10)
	var ms0, ms1 runtime.MemStats
	decNs, encNs = 1e18, 1e18
	for pass := 0; pass < 3; pass++ {
		q := queueOf(all)
		dec := f.NewDecoder()
		vals = vals[:0]
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		for {
			v, ok, err := dec.Decode(q)
			if err != nil || !ok {
				break
			}
			vals = append(vals, v)
		}
		t1 := time.Now()
		for _, v := range vals {
			dst, _ = f.Encode(dst[:0], v)
		}
		t2 := time.Now()
		runtime.ReadMemStats(&ms1)
		n := float64(max(1, len(vals)))
		decNs = min(decNs, float64(t1.Sub(t0).Nanoseconds())/n)
		encNs = min(encNs, float64(t2.Sub(t1).Nanoseconds())/n)
		allocs = float64(ms1.Mallocs-ms0.Mallocs) / n
		for _, v := range vals {
			v.Release()
		}
		q.Reset()
	}
	return decNs, encNs, allocs
}

// cpuShares attributes the profile's flat samples to the repository's
// modules with go tool pprof.
func cpuShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		shares[module(f[5])] += d.Seconds()
		total += d.Seconds()
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// module maps a profiled function to the layer it belongs to.
func module(fn string) string {
	prefixes := []struct{ prefix, mod string }{
		{"flick/internal/core.", "core"},
		{"flick/internal/compiler.", "compiler"},
		{"flick/internal/proto/", "proto"},
		{"flick/internal/grammar.", "proto"},
		{"flick/internal/upstream.", "upstream"},
		{"flick/internal/cache.", "cache"},
		{"flick/internal/buffer.", "buffer"},
		{"flick/internal/netstack.", "netstack"},
		{"syscall.", "netstack"},
		{"internal/poll.", "netstack"},
		{"internal/runtime/syscall.", "netstack"},
		{"net.", "netstack"},
		{"runtime.", "runtime"},
		{"runtime/", "runtime"},
	}
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p.prefix) {
			return p.mod
		}
	}
	return "other"
}
