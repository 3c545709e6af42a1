package main

import "strconv"

type protoKind int

const (
	protoHTTP protoKind = iota
	protoMC
	protoHadoop
)

type loadKind int

const (
	loadPipelined  loadKind = iota // persistent connections, pipelined requests
	loadConnPerReq                 // one TCP connection per request
	loadJobs                       // Hadoop aggregation jobs, mappers at full speed
)

// workload is one traffic mix. The reference rate is where CPU per op,
// origin load and the ungated latency percentiles are taken: a fixed
// offered load, so two commits are compared under the same load. It sits
// where the generator, sharing two cores with the host and the peers,
// still keeps to its schedule (an eighth to a half of capacity).
type workload struct {
	name     string
	why      string
	proto    protoKind
	load     loadKind
	backends int
	hostArgs []string

	refRate   float64 // ops/s
	probeRate float64 // ops/s offered by the capacity probe: above any rate the middlebox sustains
}

// Shared job shape for hadoop-wordcount: two mappers of jobMapperBytes.
const (
	jobMappers     = 2
	jobMapperBytes = 256 << 10
)

// Cache shape for mc-hotkey-rw: a byte budget well under the key space's
// ~2 MB of responses, and a TTL short enough to expire entries in a run.
const (
	mcCacheBytes = 256 << 10
	mcCacheTTL   = "2s"
)

var workloads = []*workload{
	{
		name:     "lb-keepalive",
		why:      "httplb uncached, 4 origins, 2 persistent pipelined connections: codec, activation, routing, upstream pool, flush (Fig. 4a/b)",
		proto:    protoHTTP,
		load:     loadPipelined,
		backends: 4,
		hostArgs: []string{"-app", "httplb"},
		refRate:  10000, probeRate: 200000,
	},
	{
		name:     "lb-conn-per-request",
		why:      "httplb with Connection: close, at most 2 open: accept, dispatch, graph pool and lease binding dominate (Fig. 4c/d)",
		proto:    protoHTTP,
		load:     loadConnPerReq,
		backends: 4,
		hostArgs: []string{"-app", "httplb"},
		refRate:  3000, probeRate: 24000,
	},
	{
		name:     "mc-hotkey-rw",
		why:      "memcachedproxy with a small response cache, 50%-hot zipf keys, 90% GET / 10% SET: hits, misses, invalidation, eviction, expiry (Fig. 5)",
		proto:    protoMC,
		load:     loadPipelined,
		backends: 4,
		hostArgs: []string{"-app", "mcproxy", "-cache-max-bytes", strconv.Itoa(mcCacheBytes), "-cache-ttl", mcCacheTTL},
		refRate:  10000, probeRate: 200000,
	},
	{
		name:     "hadoop-wordcount",
		why:      "hadoopagg, 2 mappers replaying seeded 12-char word streams: compiled fold and shared-dispatch streaming dominate (Fig. 6)",
		proto:    protoHadoop,
		load:     loadJobs,
		hostArgs: []string{"-app", "hadoopagg", "-mappers", strconv.Itoa(jobMappers)},
	},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
