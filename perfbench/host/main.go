// Command host runs one FLICK service in its own process for the
// benchmark, so CPU time, memory and allocations are charged to the
// middlebox alone. It deploys an unchanged internal/apps constructor on
// core.NewPlatform over loopback kernel TCP with flickrun's defaults
// (workers = GOMAXPROCS, sharded upstream pool), announces
// "ready <addr>" on standard output, then serves the control commands of
// package wire from standard input until it closes.
//
//	host -app httplb -backend 127.0.0.1:9001 -backend 127.0.0.1:9002
//	host -app mcproxy -cache-max-bytes 262144 -cache-ttl 2s -backend ...
//	host -app hadoopagg -mappers 2 -backend <reducer addr>
//
// With -trace the transport is wrapped to record spans (see traceNet).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"flick/internal/apps"
	"flick/internal/buffer"
	"flick/internal/core"
	"flick/internal/netstack"
	"flick/perfbench/wire"
)

type listFlag []string

func (l *listFlag) String() string     { return strings.Join(*l, ",") }
func (l *listFlag) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	var backends listFlag
	app := flag.String("app", "", "service: httplb | mcproxy | hadoopagg")
	mappers := flag.Int("mappers", 2, "hadoopagg mapper connections per job")
	cacheBytes := flag.Int64("cache-max-bytes", 0, "enable the response cache with this byte budget (0: uncached)")
	cacheTTL := flag.Duration("cache-ttl", 0, "response cache entry TTL (0: default)")
	traced := flag.Bool("trace", false, "wrap the transport to record spans")
	flag.Var(&backends, "backend", "backend address (repeatable; the reducer for hadoopagg)")
	flag.Parse()
	if err := run(*app, backends, *mappers, *cacheBytes, *cacheTTL, *traced); err != nil {
		fmt.Fprintf(os.Stderr, "host: %v\n", err)
		os.Exit(1)
	}
}

// Trace buffer sizes: one reference window at the benchmark's reference
// rates records a few hundred thousand spans and tens of MiB; both are
// allocated once and only touched pages become resident.
const (
	spanCap  = 1 << 20
	arenaCap = 64 << 20
)

func run(app string, backends []string, mappers int, cacheBytes int64, cacheTTL time.Duration, traced bool) error {
	var (
		svc *apps.Service
		err error
	)
	switch app {
	case "httplb":
		svc, err = apps.HTTPLoadBalancer(len(backends))
	case "mcproxy":
		svc, err = apps.MemcachedProxy(len(backends))
	case "hadoopagg":
		svc, err = apps.HadoopAggregator(mappers)
	default:
		return fmt.Errorf("unknown -app %q", app)
	}
	if err != nil {
		return err
	}
	if cacheBytes > 0 {
		svc.Cache = apps.CacheOptions{Enable: true, MaxBytes: cacheBytes, TTL: cacheTTL}
	}
	var (
		tr netstack.Transport = netstack.KernelTCP{}
		tn *traceNet
	)
	if traced {
		tn = newTraceNet(tr, spanCap, arenaCap)
		tr = tn
	}
	p := core.NewPlatform(core.Config{Transport: tr})
	defer p.Close()
	dep, err := svc.Deploy(p, "127.0.0.1:0", backends)
	if err != nil {
		return err
	}
	defer dep.Close()
	out := bufio.NewWriter(os.Stdout)
	reply := func(s string) error {
		out.WriteString(s)
		out.WriteByte('\n')
		return out.Flush()
	}
	if err := reply(wire.ReadyPrefix + dep.Addr()); err != nil {
		return err
	}

	var prof *os.File
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(strings.TrimSpace(in.Text()), " ")
		var rerr error
		switch cmd {
		case wire.CmdSnap:
			b, merr := json.Marshal(snapshot(p, dep, tn))
			if merr != nil {
				return merr
			}
			rerr = reply(string(b))
		case wire.CmdProfStart:
			f, ferr := os.Create(arg)
			if ferr != nil {
				return ferr
			}
			if perr := pprof.StartCPUProfile(f); perr != nil {
				f.Close()
				return perr
			}
			prof = f
			rerr = reply(wire.ReplyOK)
		case wire.CmdProfStop:
			if prof != nil {
				pprof.StopCPUProfile()
				if cerr := prof.Close(); cerr != nil {
					return cerr
				}
				prof = nil
			}
			rerr = reply(wire.ReplyOK)
		case wire.CmdTraceStart:
			if tn == nil {
				return fmt.Errorf("%s without -trace", cmd)
			}
			tn.start()
			rerr = reply(wire.ReplyOK)
		case wire.CmdTraceStop:
			if tn == nil {
				return fmt.Errorf("%s without -trace", cmd)
			}
			if werr := tn.write(arg); werr != nil {
				return werr
			}
			rerr = reply(wire.ReplyOK)
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
		if rerr != nil {
			return rerr
		}
	}
	return in.Err()
}

// snapshot reads every layer's public counters and histograms.
func snapshot(p *core.Platform, dep *core.Service, tn *traceNet) wire.Snapshot {
	m := map[string]float64{}
	st := p.Scheduler().Stats()
	m["sched.scheduled"] = float64(st.Scheduled)
	m["sched.executed"] = float64(st.Executed)
	m["sched.stolen"] = float64(st.Stolen)
	m["sched.parks"] = float64(st.Parks)
	m["sched.wakeups"] = float64(st.Wakeups)
	m["sched.overflow"] = float64(st.Overflow)
	ps := dep.Pool().Stats()
	m["pool.hits"] = float64(ps.Hits)
	m["pool.builds"] = float64(ps.Builds)
	lat := dep.Latency().Total().Snapshot()
	m["lat.count"] = float64(lat.Count)
	m["lat.p50_ns"] = float64(lat.P50)
	m["lat.p99_ns"] = float64(lat.P99)
	if up := dep.Upstreams(); up != nil {
		cs := up.Counters()
		for _, n := range cs.Names() {
			v, _ := cs.Get(n)
			m["up."+n] = float64(v)
		}
		m["up.conns"] = float64(up.Conns())
		m["up.rt_p50_ns"] = float64(up.Latency().Quantile(0.5))
		m["up.rt_p99_ns"] = float64(up.Latency().Quantile(0.99))
	}
	if c := dep.ResponseCache(); c != nil {
		cs := c.Counters()
		for _, n := range cs.Names() {
			v, _ := cs.Get(n)
			m["cache."+n] = float64(v)
		}
		m["cache.hit_p50_ns"] = float64(c.HitLatency().Quantile(0.5))
		m["cache.miss_p50_ns"] = float64(c.MissLatency().Quantile(0.5))
	}
	bs := buffer.Global.Counters()
	for _, n := range bs.Names() {
		v, _ := bs.Get(n)
		m["buf."+n] = float64(v)
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	m["rt.allocs"] = float64(samples[0].Value.Uint64())
	m["rt.alloc_bytes"] = float64(samples[1].Value.Uint64())
	m["rt.gc_cycles"] = float64(samples[2].Value.Uint64())
	h := samples[3].Value.Float64Histogram()
	gc := wire.Hist{Counts: append([]uint64(nil), h.Counts...), Buckets: make([]float64, len(h.Buckets))}
	for i, b := range h.Buckets {
		gc.Buckets[i] = math.Max(-1e9, math.Min(1e9, b))
	}
	if tn != nil {
		m["trace.spans"] = float64(tn.n.Load())
		m["trace.overflow"] = float64(tn.overflow.Load())
		m["trace.dropped"] = float64(tn.dropped.Load())
	}
	return wire.Snapshot{M: m, GCPause: gc}
}
