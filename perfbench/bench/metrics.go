package main

// metricDef names one reported metric. applies is nil when the metric
// means something on every workload; otherwise the metric reads zero (and
// is marked not applicable) where applies is false.
type metricDef struct {
	name    string
	unit    string
	applies func(*workload) bool
}

func isHTTP(w *workload) bool      { return w.proto == protoHTTP }
func isMC(w *workload) bool        { return w.proto == protoMC }
func isHadoop(w *workload) bool    { return w.proto == protoHadoop }
func hasUpstream(w *workload) bool { return w.proto != protoHadoop }

// endToEnd is what a user of the middlebox sees, measured untraced.
var endToEnd = []metricDef{
	{"setup_s", "s", nil},
	{"capacity_rps", "req/s", nil},
	{"throughput_mbps", "Mb/s", nil},
	{"cpu_us_per_op", "us", nil},
	{"rss_mb", "MiB", nil},
	{"origin_reqs_per_req", "req/req", nil},
}

// perLayer is measured on a traced host at the reference rate (the
// Hadoop jobs for hadoop-wordcount). "op" is one client request, or one
// mapper key/value pair.
var perLayer = []metricDef{
	// netstack: calls into the wrapped transport.
	{"netstack.client_reads_per_op", "1/op", nil},
	{"netstack.client_writes_per_op", "1/op", nil},
	{"netstack.upstream_writes_per_op", "1/op", nil},
	{"netstack.upstream_reads_per_op", "1/op", nil},
	{"netstack.write_busy_us_per_op", "us/op", nil},
	{"netstack.accepts_per_op", "1/op", nil},
	{"netstack.upstream_dials", "count", nil},
	{"netstack.accept_to_first_write_p50_us", "us", nil},
	// core: scheduler and graph pool counters, the service latency
	// histogram, and span-joined stage times.
	{"core.activations_per_op", "1/op", nil},
	{"core.wakeups_per_op", "1/op", nil},
	{"core.parks_per_op", "1/op", nil},
	{"core.steals_per_op", "1/op", nil},
	{"core.inbox_overflows", "count", nil},
	{"core.pool_builds_per_conn", "1/conn", nil},
	{"core.decode_to_flush_p50_us", "us", hasUpstream},
	{"core.decode_to_flush_p99_us", "us", hasUpstream},
	{"core.ingress_p50_us", "us", hasUpstream},
	{"core.egress_p50_us", "us", hasUpstream},
	{"core.self_p50_us_derived", "us", hasUpstream},
	// proto: captured wire bytes replayed through the public codecs.
	{"proto.http_req_decode_ns", "ns/msg", isHTTP},
	{"proto.http_resp_decode_ns", "ns/msg", isHTTP},
	{"proto.http_req_encode_ns", "ns/msg", isHTTP},
	{"proto.http_resp_encode_ns", "ns/msg", isHTTP},
	{"proto.http_allocs_per_msg", "1/msg", isHTTP},
	{"proto.mc_req_decode_ns", "ns/msg", isMC},
	{"proto.mc_resp_decode_ns", "ns/msg", isMC},
	{"proto.mc_encode_ns", "ns/msg", isMC},
	{"proto.mc_allocs_per_msg", "1/msg", isMC},
	{"proto.hadoop_decode_ns", "ns/msg", isHadoop},
	{"proto.hadoop_encode_ns", "ns/msg", isHadoop},
	{"proto.hadoop_allocs_per_msg", "1/msg", isHadoop},
	// compiler: profile share of the compiled program's code.
	{"compiler.cpu_share", "share", nil},
	// upstream: the shared pool's counters and round-trip histogram.
	{"upstream.rt_p50_us", "us", hasUpstream},
	{"upstream.rt_p99_us", "us", hasUpstream},
	{"upstream.wait_p50_us", "us", hasUpstream},
	{"upstream.reqs_per_op", "1/op", hasUpstream},
	{"upstream.dials", "count", hasUpstream},
	{"upstream.redials", "count", hasUpstream},
	{"upstream.failfast", "count", hasUpstream},
	{"upstream.conns", "count", hasUpstream},
	// cache: the response cache's counters and histograms.
	{"cache.hit_ratio", "share", isMC},
	{"cache.hit_p50_us", "us", isMC},
	{"cache.miss_p50_us", "us", isMC},
	{"cache.hit_serve_p50_us", "us", isMC},
	{"cache.coalesced_per_miss", "1/miss", isMC},
	{"cache.invalidations_per_write", "1/write", isMC},
	{"cache.evictions_per_op", "1/op", isMC},
	{"cache.aborts", "count", isMC},
	{"cache.bytes_resident", "B", isMC},
	// buffer: the global pool's counters.
	{"buffer.views_per_op", "1/op", nil},
	{"buffer.coalesced_per_op", "1/op", nil},
	{"buffer.misses_per_op", "1/op", nil},
	{"buffer.oversized", "count", nil},
	// runtime of the host process.
	{"runtime.allocs_per_op", "1/op", nil},
	{"runtime.alloc_bytes_per_op", "B/op", nil},
	{"runtime.gc_cycles_per_10k_op", "1/10k-op", nil},
	{"runtime.gc_pause_p99_us", "us", nil},
	// CPU profile of the host, flat samples by module.
	{"cpu_share.core", "share", nil},
	{"cpu_share.compiler", "share", nil},
	{"cpu_share.proto", "share", nil},
	{"cpu_share.upstream", "share", hasUpstream},
	{"cpu_share.cache", "share", isMC},
	{"cpu_share.buffer", "share", nil},
	{"cpu_share.netstack", "share", nil},
	{"cpu_share.runtime", "share", nil},
	{"cpu_share.other", "share", nil},
	// the trace itself: overhead against the untraced pass, and health.
	{"trace.cpu_us_per_op", "us", nil},
	{"trace.untraced_cpu_us_per_op", "us", nil},
	{"trace.capacity_rps", "req/s", nil},
	{"trace.untraced_capacity_rps", "req/s", nil},
	{"trace.cpu_overhead", "share", nil},
	{"trace.span_overflows", "count", nil},
	{"trace.joined_share", "share", hasUpstream},
}
