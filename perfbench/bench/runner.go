package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"flick/internal/proto/memcache"
	"flick/perfbench/wire"
)

// Phase lengths as shares of -seconds. A pass is one untraced or traced
// measurement: reference window then capacity steps (jobs for Hadoop).
const (
	setupRuns   = 15   // host launches timed for setup_s
	warmup      = 0.05 // untimed warm-up at the reference rate, share of -seconds
	refShare    = 0.3  // reference window, split into refWindows
	refWindows  = 6
	capShare    = 0.7  // capacity steps
	lateLimitUs = 5000 // a reference window whose generator ran later than this at p99 is invalid
	maxRetries  = 12   // invalid reference windows re-run before the run is given up
)

// runner carries one benchmark run.
type runner struct {
	w       *workload
	seed    int64
	seconds float64
	hostBin string
	outDir  string
	clients int

	peers *peers
	src   source
	pipes []*pipe
	job   *job

	attempted int
	failed    int
	sets      int // memcached SETs sent
	firstFail string
	wrong     string // a check that failed outside any op count
	diag      map[string]any
}

func (r *runner) hostArgs(traced bool) []string {
	args := append([]string(nil), r.w.hostArgs...)
	for _, a := range r.peers.addrs {
		args = append(args, "-backend", a)
	}
	if traced {
		args = append(args, "-trace")
	}
	return args
}

func (r *runner) init() error {
	if r.clients > runtime.NumCPU() {
		return fmt.Errorf("%d client connections exceed nproc %d", r.clients, runtime.NumCPU())
	}
	r.diag = map[string]any{}
	ps, err := startPeers(r.w)
	if err != nil {
		return err
	}
	r.peers = ps
	switch r.w.proto {
	case protoHTTP:
		r.src = newHTTPSource(r.seed, r.w.load == loadConnPerReq)
	case protoMC:
		r.src = newMCSource(r.seed)
	case protoHadoop:
		r.job = newJob(r.seed, jobMappers, jobMapperBytes)
	}
	return nil
}

// count folds a phase's outcome into the run totals.
func (r *runner) count(ph *phase) {
	r.attempted += ph.n
	r.failed += ph.fails
	if ph.fails > 0 && r.firstFail == "" {
		r.firstFail = ph.failWhy
	}
}

func (r *runner) countJob(jr jobRun) {
	r.attempted += jr.inPairs
	if jr.err != nil {
		r.failed += jr.inPairs
		if r.firstFail == "" {
			r.firstFail = jr.err.Error()
		}
	}
}

// dial opens the pipelined client connections to the host.
func (r *runner) dial(addr string) error {
	r.closePipes()
	for i := 0; i < r.clients; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		r.pipes = append(r.pipes, &pipe{c: c})
	}
	return nil
}

func (r *runner) closePipes() {
	for _, p := range r.pipes {
		p.c.Close()
	}
	r.pipes = nil
}

func (r *runner) proto() proto {
	if r.w.proto == protoMC {
		return mcProto{}
	}
	return httpProto{payload: httpPayload()}
}

// phase runs rate ops/s for d against the host at addr.
func (r *runner) phase(addr string, rate float64, d float64) (*phase, error) {
	n := int(math.Max(1, rate*d))
	b := r.src.next(n)
	for _, op := range b.op {
		if op == memcache.OpSet {
			r.sets++
		}
	}
	// This process runs with the collector off (see main) and collects
	// here, between phases, so its own GC never stalls the generator.
	runtime.GC()
	var ph *phase
	if r.w.load == loadConnPerReq {
		ph = runConnPerRequest(addr, r.clients, b, rate, httpPayload())
	} else {
		ph = runPipelined(r.pipes, b, rate, r.proto())
		if ph.fails > 0 {
			if err := r.dial(addr); err != nil {
				return nil, err
			}
		}
	}
	r.count(ph)
	return ph, nil
}

// firstResponse sends one request to a freshly deployed host and checks
// the answer.
func (r *runner) firstResponse(addr string) error {
	switch r.w.proto {
	case protoHadoop:
		jr := runJob(addr, r.peers.sink, newJob(r.seed, jobMappers, 256))
		return jr.err
	case protoMC:
		// A GET of key 0, whose version 0 every shard was preloaded with.
		c, err := net.DialTimeout("tcp", addr, drainTimeout)
		if err != nil {
			return err
		}
		defer c.Close()
		req := appendMC(nil, memcache.OpGet, 0, 0, nil)
		b := &batch{data: req, off: []int32{0, int32(len(req))}, op: []byte{memcache.OpGet}, key: []int32{0}}
		ph := runPipelined([]*pipe{{c: c}}, b, 1e6, mcProto{})
		if ph.fails > 0 {
			return errors.New(ph.failWhy)
		}
		return nil
	default:
		req := []byte("GET /setup HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
		resp, err := oneShot(addr, req, make([]byte, 4<<10), time.Now().Add(drainTimeout))
		if err != nil {
			return err
		}
		_, status, body, err := parseHTTP(resp)
		if err != nil {
			return err
		}
		return checkHTTP(status, body, httpPayload())
	}
}

// setup launches the host setupRuns times and returns the median time
// from process start to the first correct response.
func (r *runner) setup() (float64, error) {
	var ts []float64
	for i := 0; i < setupRuns; i++ {
		h, err := startHost(r.hostBin, r.hostArgs(false))
		if err != nil {
			return 0, err
		}
		err = r.firstResponse(h.addr)
		t := time.Since(h.start).Seconds()
		if serr := h.stop(); err == nil && serr != nil {
			err = fmt.Errorf("host exit: %w", serr)
		}
		if err != nil {
			return 0, fmt.Errorf("set-up run %d: %w", i, err)
		}
		ts = append(ts, t)
	}
	r.diag["setup_runs_s"] = ts
	return wire.Median(ts), nil
}

// refStats is the reference-rate window's outcome.
type refStats struct {
	ops      int
	p50, p99 float64 // µs, medians over the sub-windows
	cpuUs    float64 // host CPU per completed op
	origin   float64 // origin requests per op
	pooled   []int64 // every completed latency, ns
	late99   float64 // µs
	invalids int
}

// reference runs the reference-rate window as refWindows sub-windows and
// takes p50 and p99 as medians of the sub-windows' exact percentiles.
func (r *runner) reference(h *hostProc) (*refStats, error) {
	st := &refStats{}
	d := r.seconds * refShare / refWindows
	cpu0, err := h.cpu()
	if err != nil {
		return nil, err
	}
	org0 := r.peers.originRequests()
	var p50s, p99s []float64
	var lates []int64
	for len(p50s) < refWindows {
		ph, err := r.phase(h.addr, r.w.refRate, d)
		if err != nil {
			return nil, err
		}
		st.ops += ph.n - ph.fails // CPU and origin requests accrue in invalid windows too
		lq := wire.Quantiles(append([]int64(nil), ph.late...), 0.99)
		if float64(lq[0])/1e3 > lateLimitUs {
			st.invalids++
			if st.invalids > maxRetries {
				return nil, fmt.Errorf("generator fell behind its schedule in %d reference windows (late p99 %.0fus > %dus): run invalid",
					st.invalids, float64(lq[0])/1e3, lateLimitUs)
			}
			continue
		}
		lat := ph.completed()
		st.pooled = append(st.pooled, lat...)
		lates = append(lates, ph.late...)
		q := wire.Quantiles(lat, 0.5, 0.99)
		p50s = append(p50s, float64(q[0])/1e3)
		p99s = append(p99s, float64(q[1])/1e3)
	}
	cpu1, err := h.cpu()
	if err != nil {
		return nil, err
	}
	st.p50, st.p99 = wire.Median(p50s), wire.Median(p99s)
	r.diag["ref_window_p50s_us"], r.diag["ref_window_p99s_us"] = p50s, p99s
	st.cpuUs = float64((cpu1 - cpu0).Microseconds()) / float64(max(1, st.ops))
	st.origin = float64(r.peers.originRequests()-org0) / float64(max(1, st.ops))
	st.late99 = float64(wire.Quantiles(lates, 0.99)[0]) / 1e3
	return st, nil
}

// capStep records one capacity step.
type capStep struct {
	Offered   float64 `json:"offered"`
	Delivered float64 `json:"delivered"`
	P99us     float64 `json:"p99_us"`
	Backlog   int     `json:"backlog"`
}

// checkP99LimitUs is the latency limit of the check step at 90% of
// capacity.
const checkP99LimitUs = 50000

// satSteps is how many saturation steps the capacity median is taken over;
// a single step's delivered rate varies by about ±10% on two shared cores.
const satSteps = 5

// delivered returns the rate and wire Mb/s of responses that completed in
// the last three quarters of ph's schedule, when the pipeline is full.
func delivered(ph *phase) (rate, mbps float64) {
	from, to := int64(ph.dur)/4, int64(ph.dur)
	n := 0
	for i, l := range ph.lat {
		if done := ph.due(i) + l; l >= 0 && done >= from && done < to {
			n++
		}
	}
	ok := len(ph.completed())
	secs := float64(to-from) / 1e9
	rate = float64(n) / secs
	if ok > 0 {
		mbps = float64(ph.reqBytes+ph.rspBytes) / float64(ok) * float64(n) * 8 / 1e6 / secs
	}
	return rate, mbps
}

// capacity measures the rate the middlebox delivers when offered more than
// it can take. Requests are flow-controlled (TCP back-pressure, or a
// connection slot), so under overload the completion rate is the highest
// rate the middlebox sustains. A short probe at the workload's ceiling
// estimates it; satSteps steps offered 30% above that estimate give the
// median. A last step offered 90% of the result checks the workload's
// latency, failure and backlog limits there (recorded, not gated). before
// runs ahead of every step.
func (r *runner) capacity(h *hostProc, before func() error) (rate, mbps float64, steps []capStep, err error) {
	d := r.seconds * capShare / (satSteps + 1) // the probe and the check take half a step each
	step := func(offered, dur float64) (*phase, error) {
		if before != nil {
			if err := before(); err != nil {
				return nil, err
			}
		}
		ph, err := r.phase(h.addr, offered, dur)
		if err != nil {
			return nil, err
		}
		got, _ := delivered(ph)
		steps = append(steps, capStep{Offered: offered, Delivered: got,
			P99us: float64(wire.Quantiles(ph.completed(), 0.99)[0]) / 1e3, Backlog: ph.backlog()})
		return ph, nil
	}
	ph, err := step(r.w.probeRate, d/2)
	if err != nil {
		return 0, 0, steps, err
	}
	est, _ := delivered(ph)
	if est <= 0 {
		return 0, 0, steps, fmt.Errorf("nothing delivered at %.0f ops/s offered", r.w.probeRate)
	}
	// A step that delivers nearly all it was offered was not saturated:
	// it is re-offered higher and left out of the median.
	var rates, rates2 []float64
	for k := 0; len(rates) < satSteps && k < 2*satSteps; k++ {
		offered := 1.3 * est
		if ph, err = step(offered, d); err != nil {
			return 0, 0, steps, err
		}
		got, gotMbps := delivered(ph)
		est = max(est, got)
		if got > 0.97*offered {
			continue
		}
		rates, rates2 = append(rates, got), append(rates2, gotMbps)
	}
	if len(rates) == 0 {
		return 0, 0, steps, fmt.Errorf("no capacity step saturated the middlebox (last offered %.0f ops/s)", 1.3*est)
	}
	rate, mbps = wire.Median(rates), wire.Median(rates2)
	if ph, err = step(0.9*rate, d/2); err != nil {
		return 0, 0, steps, err
	}
	p99 := float64(wire.Quantiles(ph.completed(), 0.99)[0]) / 1e3
	r.diag["capacity_check_at_90pct"] = map[string]any{
		"p99_us": p99, "fails": ph.fails, "backlog": ph.backlog(),
		"within_limits": ph.fails == 0 && p99 <= checkP99LimitUs &&
			float64(ph.backlog()) <= math.Max(16, 0.9*rate*checkP99LimitUs/1e6),
	}
	return rate, mbps, steps, nil
}

// jobs runs aggregation jobs back to back for d seconds.
func (r *runner) jobs(h *hostProc, d float64, before func() error) ([]jobRun, error) {
	var out []jobRun
	end := time.Now().Add(time.Duration(d * 1e9))
	for len(out) < 3 || time.Now().Before(end) {
		if before != nil {
			if err := before(); err != nil {
				return nil, err
			}
		}
		jr := runJob(h.addr, r.peers.sink, r.job)
		r.countJob(jr)
		if jr.err != nil {
			return out, fmt.Errorf("job: %w", jr.err)
		}
		out = append(out, jr)
	}
	return out, nil
}

// jobStats summarises jobs: median Mb/s and pairs/s, exact latency
// percentiles, and the reducer pairs per input pair.
func jobStats(js []jobRun) (mbps, pairsPerS, p50, p99, outPerIn float64, lats []int64) {
	var rates, prs []float64
	var in, out int
	for _, j := range js {
		s := j.lat.Seconds()
		rates = append(rates, float64(j.inBytes)*8/1e6/s)
		prs = append(prs, float64(j.inPairs)/s)
		lats = append(lats, int64(j.lat))
		in += j.inPairs
		out += j.outPair
	}
	q := wire.Quantiles(append([]int64(nil), lats...), 0.5, 0.99)
	return wire.Median(rates), wire.Median(prs), float64(q[0]) / 1e3, float64(q[1]) / 1e3,
		float64(out) / float64(max(1, in)), lats
}

// tailDiag records the ungated tail diagnostics of a latency sample.
func (r *runner) tailDiag(prefix string, lat []int64) {
	if len(lat) == 0 {
		return
	}
	var sum float64
	for _, l := range lat {
		sum += float64(l)
	}
	q := wire.Quantiles(lat, 0.5, 0.99, 0.999, 1)
	mean := sum / float64(len(lat)) / 1e3
	r.diag[prefix+"samples"] = len(lat)
	r.diag[prefix+"p999_us"] = float64(q[2]) / 1e3
	r.diag[prefix+"max_us"] = float64(q[3]) / 1e3
	r.diag[prefix+"mean_us"] = mean
	if mean > float64(q[1])/1e3 {
		r.diag[prefix+"warning"] = fmt.Sprintf("mean %.0fus exceeds p99 %.0fus: more than 1%% of ops sit in a far tail",
			mean, float64(q[1])/1e3)
	}
}

// endToEnd measures the end-to-end metrics with tracing off.
func (r *runner) endToEnd() (map[string]float64, error) {
	if err := r.init(); err != nil {
		return nil, err
	}
	defer r.peers.close()
	setup, err := r.setup()
	if err != nil {
		return nil, err
	}
	var vals map[string]float64
	if r.w.load == loadJobs {
		vals, err = r.endToEndJobs()
	} else {
		vals, err = r.endToEndRequests()
	}
	if err != nil {
		return nil, err
	}
	vals["setup_s"] = setup
	r.diag["fail_ratio"] = float64(r.failed) / float64(max(1, r.attempted))
	return vals, nil
}

func (r *runner) endToEndRequests() (map[string]float64, error) {
	h, err := startHost(r.hostBin, r.hostArgs(false))
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
	if _, err := r.phase(h.addr, r.w.refRate, r.seconds*warmup); err != nil {
		return nil, err
	}
	rs := h.sampleRSS()
	ref, err := r.reference(h)
	rss, rerr := rs.stop()
	if err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	vals := map[string]float64{
		"rss_mb":              rss,
		"cpu_us_per_op":       ref.cpuUs,
		"origin_reqs_per_req": ref.origin,
	}
	r.diag["p50_us"], r.diag["p99_us"] = ref.p50, ref.p99
	r.diag["gen_late_p99_us"] = ref.late99
	r.diag["reference_rate"] = r.w.refRate
	r.diag["reference_invalid_windows"] = ref.invalids
	r.tailDiag("ref_", ref.pooled)
	capRate, mbps, steps, err := r.capacity(h, nil)
	r.diag["capacity_steps"] = steps
	if err != nil {
		return nil, err
	}
	vals["capacity_rps"], vals["throughput_mbps"] = capRate, mbps
	return vals, h.stop()
}

// jobHosts is how many host processes a hadoop-wordcount run spreads its
// jobs over; per-host CPU and peak RSS are reported as medians.
const jobHosts = 3

func (r *runner) endToEndJobs() (map[string]float64, error) {
	var (
		all        []jobRun
		cpus, rsss []float64
	)
	for i := 0; i < jobHosts; i++ {
		h, err := startHost(r.hostBin, r.hostArgs(false))
		if err != nil {
			return nil, err
		}
		rs := h.sampleRSS()
		_, err = r.jobs(h, 0, nil) // warm-up
		var (
			js  []jobRun
			cpu float64
		)
		if err == nil {
			js, cpu, err = r.hostJobs(h, r.seconds/jobHosts)
		}
		rss, rerr := rs.stop()
		if err == nil {
			err = rerr
		}
		if err == nil {
			rsss = append(rsss, rss)
			err = h.stop()
		}
		if err != nil {
			h.kill()
			return nil, err
		}
		all = append(all, js...)
		cpus = append(cpus, cpu)
	}
	mbps, pps, p50, p99, outIn, lats := jobStats(all)
	r.diag["p50_us"], r.diag["p99_us"] = p50, p99
	r.diag["jobs"] = len(all)
	r.diag["host_cpu_us_per_op"], r.diag["host_rss_mb"] = cpus, rsss
	r.tailDiag("job_latency_", lats)
	return map[string]float64{
		"throughput_mbps":     mbps,
		"capacity_rps":        pps,
		"cpu_us_per_op":       wire.Median(cpus),
		"rss_mb":              wire.Median(rsss),
		"origin_reqs_per_req": outIn,
	}, nil
}

// hostJobs runs jobs for d seconds on h and returns them with the host's
// CPU per input pair.
func (r *runner) hostJobs(h *hostProc, d float64) ([]jobRun, float64, error) {
	cpu0, err := h.cpu()
	if err != nil {
		return nil, 0, err
	}
	js, err := r.jobs(h, d, nil)
	if err != nil {
		return nil, 0, err
	}
	cpu1, err := h.cpu()
	if err != nil {
		return nil, 0, err
	}
	pairs := 0
	for _, j := range js {
		pairs += j.inPairs
	}
	return js, float64((cpu1 - cpu0).Microseconds()) / float64(max(1, pairs)), nil
}

// gitHead returns the current git commit, or "" outside a repository.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// treeDigest hashes the module's Go sources and go.mod under root.
func treeDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(p); err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", p, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
