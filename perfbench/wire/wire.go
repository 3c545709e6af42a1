// Package wire holds what the benchmark's host and bench processes share:
// the host's control protocol, the span record layout of the traced
// transport, and exact percentiles over raw samples.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Control protocol. The bench process writes one command per line to the host's
// standard input and reads one reply line per command from its standard
// output. The host announces itself with "ready <addr>" once deployed and
// exits when its standard input closes.
const (
	CmdSnap       = "snap"        // reply: one Snapshot as JSON
	CmdProfStart  = "prof-start"  // arg: profile path; reply "ok"
	CmdProfStop   = "prof-stop"   // reply "ok"
	CmdTraceStart = "trace-start" // clears the span buffer and records; reply "ok"
	CmdTraceStop  = "trace-stop"  // arg: trace path; stops and writes spans; reply "ok"
	ReplyOK       = "ok"
	ReadyPrefix   = "ready "
)

// Snapshot is the host's counter and histogram state at one instant.
// Counters are cumulative, so the bench process subtracts two snapshots to get
// a window; the latency quantiles are lifetime values of the layer's own
// log-bucket histograms.
type Snapshot struct {
	// M maps "<layer>.<counter>" to its value (see the host for names).
	M map[string]float64 `json:"m"`
	// GCPause is the cumulative stop-the-world GC pause histogram.
	GCPause Hist `json:"gc_pause"`
}

// Hist is a cumulative runtime/metrics histogram: Counts[i] samples fell
// in [Buckets[i], Buckets[i+1]) seconds. Infinite bounds are clamped so
// the histogram survives JSON.
type Hist struct {
	Counts  []uint64  `json:"counts"`
	Buckets []float64 `json:"buckets"`
}

// Quantile returns the upper bound of the bucket holding the q-th
// quantile of the samples in h minus prev (prev may be empty), in seconds.
func (h Hist) Quantile(prev Hist, q float64) float64 {
	var total uint64
	d := make([]uint64, len(h.Counts))
	for i, c := range h.Counts {
		if i < len(prev.Counts) {
			c -= prev.Counts[i]
		}
		d[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range d {
		seen += c
		if seen >= rank {
			return h.Buckets[i+1]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// Span sides and operations recorded by the traced transport.
const (
	SideClient   = 0 // accepted from the load generator or a mapper
	SideUpstream = 1 // dialled by the middlebox to an origin, shard or reducer

	OpAccept = 0
	OpDial   = 1
	OpRead   = 2
	OpWrite  = 3
)

// Span is one call into the transport. Off locates the call's bytes in the
// trace's byte arena; -1 means they were not captured (arena full).
type Span struct {
	Conn  uint32
	Side  uint8
	Op    uint8
	_     [2]byte
	Bytes int32
	Start int64 // ns since the host's trace epoch
	End   int64
	Off   int64
}

// TraceHeader leads a trace file; the spans and the arena follow.
type TraceHeader struct {
	Magic    uint32
	_        uint32
	Spans    uint64
	Overflow uint64 // spans dropped because the span buffer was full
	Arena    uint64 // captured bytes that follow the spans
	Dropped  uint64 // bytes not captured because the arena was full
}

// TraceMagic identifies a trace file.
const TraceMagic = 0x464c4b54

// Trace is a decoded trace file.
type Trace struct {
	Spans    []Span
	Arena    []byte
	Overflow uint64
	Dropped  uint64
}

// WriteTrace writes spans and arena to path.
func WriteTrace(path string, spans []Span, arena []byte, overflow, dropped uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	hdr := TraceHeader{Magic: TraceMagic, Spans: uint64(len(spans)), Overflow: overflow,
		Arena: uint64(len(arena)), Dropped: dropped}
	err = binary.Write(w, binary.LittleEndian, &hdr)
	if err == nil {
		err = binary.Write(w, binary.LittleEndian, spans)
	}
	if err == nil {
		_, err = w.Write(arena)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadTrace reads a file written by WriteTrace.
func ReadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var hdr TraceHeader
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("trace header: %w", err)
	}
	if hdr.Magic != TraceMagic {
		return nil, fmt.Errorf("trace %s: bad magic %#x", path, hdr.Magic)
	}
	t := &Trace{Spans: make([]Span, hdr.Spans), Arena: make([]byte, hdr.Arena),
		Overflow: hdr.Overflow, Dropped: hdr.Dropped}
	if err := binary.Read(r, binary.LittleEndian, t.Spans); err != nil {
		return nil, fmt.Errorf("trace spans: %w", err)
	}
	if _, err := io.ReadFull(r, t.Arena); err != nil {
		return nil, fmt.Errorf("trace arena: %w", err)
	}
	return t, nil
}

// Quantiles sorts samples in place and returns the nearest-rank quantile
// for each q: the smallest sample with at least q·n samples at or below
// it. An empty input yields zeros.
func Quantiles(samples []int64, qs ...float64) []int64 {
	out := make([]int64, len(qs))
	n := len(samples)
	if n == 0 {
		return out
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for i, q := range qs {
		rank := int(math.Ceil(q * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if rank > n {
			rank = n
		}
		out[i] = samples[rank-1]
	}
	return out
}

// Median returns the median of xs (the mean of the middle two for an even
// count) without reordering xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
