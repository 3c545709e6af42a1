package wire

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// oracleQuantile is the definition Quantiles implements, evaluated by
// brute force: the smallest sample v with count(x <= v) >= q·n.
func oracleQuantile(samples []int64, q float64) int64 {
	n := float64(len(samples))
	best := int64(0)
	found := false
	for _, v := range samples {
		c := 0
		for _, x := range samples {
			if x <= v {
				c++
			}
		}
		if float64(c) >= q*n && (!found || v < best) {
			best, found = v, true
		}
	}
	return best
}

func TestQuantilesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []float64{0.001, 0.5, 0.9, 0.99, 0.999, 1}
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 997, 2000} {
		samples := make([]int64, n)
		for i := range samples {
			// Heavy-tailed values with ties, like latencies.
			samples[i] = int64(rng.ExpFloat64()*1000) / 7 * 7
		}
		want := make([]int64, len(qs))
		for i, q := range qs {
			want[i] = oracleQuantile(samples, q)
		}
		got := Quantiles(append([]int64(nil), samples...), qs...)
		for i := range qs {
			if got[i] != want[i] {
				t.Fatalf("n=%d q=%v: got %d, oracle %d", n, qs[i], got[i], want[i])
			}
		}
	}
}

func TestQuantilesEmpty(t *testing.T) {
	if got := Quantiles(nil, 0.5, 0.99); got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty input: got %v", got)
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median %v", m)
	}
	if m := Median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median %v", m)
	}
}

func TestHistQuantileWindow(t *testing.T) {
	prev := Hist{Counts: []uint64{5, 0, 0}, Buckets: []float64{0, 1, 2, 3}}
	cur := Hist{Counts: []uint64{5, 9, 1}, Buckets: prev.Buckets}
	// Window holds 9 samples in [1,2) and 1 in [2,3).
	if got := cur.Quantile(prev, 0.5); got != 2 {
		t.Fatalf("p50 = %v, want bucket bound 2", got)
	}
	if got := cur.Quantile(prev, 0.99); got != 3 {
		t.Fatalf("p99 = %v, want bucket bound 3", got)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bin")
	spans := []Span{{Conn: 1, Side: SideUpstream, Op: OpWrite, Bytes: 3, Start: 10, End: 20, Off: 0}}
	if err := WriteTrace(path, spans, []byte("abc"), 2, 5); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans) != 1 || tr.Spans[0] != spans[0] || string(tr.Arena) != "abc" || tr.Overflow != 2 || tr.Dropped != 5 {
		t.Fatalf("round trip mismatch: %+v", tr)
	}
}
