package bench

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"flick/internal/apps"
	"flick/internal/core"
	"flick/internal/loadgen"
	"flick/internal/netstack"
	"flick/internal/proto/hadoop"
)

// Fig6Config parameterises the Figure 6 Hadoop aggregator experiment.
type Fig6Config struct {
	Cores      []int // worker threads (paper: 1,2,4,8,16)
	WordLens   []int // word lengths (paper: 8, 12, 16)
	Mappers    int   // concurrent mappers (paper: 8)
	BytesPer   int64 // intermediate bytes per mapper per run
	Distinct   int   // distinct words (high reduction ratio)
	UseUserNet bool  // kernel results match mTCP here (§6.3), default kernel
}

// Fig6Point is one measured cell.
type Fig6Point struct {
	WordLen        int
	Cores          int
	ThroughputMbps float64
	Pairs          uint64
	Elapsed        time.Duration
}

// RunFig6 measures aggregate mapper→middlebox throughput across core
// counts and word lengths. The aggregator is compute-bound: throughput
// grows with cores until the links (here: loopback memory bandwidth)
// saturate, and longer words move more bytes per key/value pair.
//
// A cell's clock runs from the first mapper dial until the reducer reads
// EOF, so it covers the whole aggregation, not just the mappers' writes
// into socket buffers. The reducer's per-word totals must equal the
// mappers' counts, or the cell fails.
func RunFig6(cfg Fig6Config) ([]Fig6Point, error) {
	if len(cfg.Cores) == 0 {
		cfg.Cores = []int{1, 2, 4, 8, 16}
	}
	if len(cfg.WordLens) == 0 {
		cfg.WordLens = []int{8, 12, 16}
	}
	if cfg.Mappers <= 0 {
		cfg.Mappers = 8
	}
	if cfg.BytesPer <= 0 {
		cfg.BytesPer = 16 << 20
	}
	if cfg.Distinct <= 0 {
		cfg.Distinct = 1000
	}
	var out []Fig6Point
	for _, wl := range cfg.WordLens {
		for _, cores := range cfg.Cores {
			pt, err := runFig6Cell(cfg, wl, cores)
			if err != nil {
				return out, fmt.Errorf("bench: fig6 wl=%d cores=%d: %w", wl, cores, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

func runFig6Cell(cfg Fig6Config, wordLen, cores int) (Fig6Point, error) {
	var tr netstack.Transport = netstack.KernelTCP{}
	if cfg.UseUserNet {
		tr = netstack.NewUserNet()
	}

	// Reducer sink: sums the aggregated stream per word and reports the
	// totals at EOF, when the aggregator has flushed everything.
	rl, err := tr.Listen(listenAddr(tr, "reducer:1"))
	if err != nil {
		return Fig6Point{}, err
	}
	defer rl.Close()
	reduced := make(chan reducerResult, 1)
	go func() {
		c, err := rl.Accept()
		if err != nil {
			reduced <- reducerResult{err: err}
			return
		}
		defer c.Close()
		reduced <- reduce(c)
	}()

	p := core.NewPlatform(core.Config{Workers: cores, Transport: tr})
	defer p.Close()
	agg, err := apps.HadoopAggregator(cfg.Mappers)
	if err != nil {
		return Fig6Point{}, err
	}
	svc, err := agg.Deploy(p, listenAddr(tr, "agg:1"), []string{rl.Addr().String()})
	if err != nil {
		return Fig6Point{}, err
	}
	defer svc.Close()

	ds := loadgen.NewWordDataset(wordLen, cfg.Distinct, int64(wordLen)*31)
	start := time.Now()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		pairs  uint64
		bytes  uint64
		counts = make([]uint64, len(ds.Words)) // pairs sent per word
		runErr error
	)
	for m := 0; m < cfg.Mappers; m++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			res, err := ds.RunMapper(tr, svc.Addr(), cfg.BytesPer, seed)
			mu.Lock()
			pairs += res.Pairs
			bytes += res.Bytes
			for i, n := range res.Counts {
				counts[i] += n
			}
			if err != nil && err != io.EOF && runErr == nil {
				runErr = err
			}
			mu.Unlock()
		}(int64(m) + 1)
	}
	wg.Wait()
	if runErr != nil {
		return Fig6Point{}, runErr
	}
	var red reducerResult
	select {
	case red = <-reduced:
	case <-time.After(fig6ReduceTimeout):
		return Fig6Point{}, fmt.Errorf("reducer saw no EOF within %v of the mappers finishing", fig6ReduceTimeout)
	}
	elapsed := time.Since(start)
	if red.err != nil {
		return Fig6Point{}, fmt.Errorf("reducer: %w", red.err)
	}
	if err := checkTotals(ds, counts, red.totals); err != nil {
		return Fig6Point{}, err
	}
	return Fig6Point{
		WordLen:        wordLen,
		Cores:          cores,
		ThroughputMbps: float64(bytes) * 8 / 1e6 / elapsed.Seconds(),
		Pairs:          pairs,
		Elapsed:        elapsed,
	}, nil
}

// fig6ReduceTimeout bounds the wait for the aggregator's final flush
// after the last mapper has written its stream.
const fig6ReduceTimeout = 2 * time.Minute

// reducerResult is what the reducer sink read before EOF.
type reducerResult struct {
	totals map[string]uint64
	err    error
}

// reduce reads aggregated pairs until EOF and sums their counts per word.
func reduce(r io.Reader) reducerResult {
	res := reducerResult{totals: map[string]uint64{}}
	hr := hadoop.NewReader(r)
	for {
		kv, err := hr.Read()
		if err == io.EOF {
			return res
		}
		if err != nil {
			res.err = err
			return res
		}
		n, perr := strconv.ParseUint(string(hadoop.Value(kv)), 10, 64)
		res.totals[hadoop.Key(kv)] += n
		// Decoded pairs hold a reference to their pooled wire chunk;
		// dropping it unreleased would drain the pool.
		kv.Release()
		if perr != nil {
			res.err = fmt.Errorf("aggregated value: %w", perr)
			return res
		}
	}
}

// checkTotals compares the reducer's per-word totals with the counts the
// mappers sent.
func checkTotals(ds *loadgen.WordDataset, sent []uint64, got map[string]uint64) error {
	want := map[string]uint64{}
	for i, n := range sent {
		if n > 0 {
			want[string(ds.Words[i])] += n
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("reducer received %d distinct words, mappers sent %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			return fmt.Errorf("word %q: reducer total %d, mappers sent %d", w, got[w], n)
		}
	}
	return nil
}

// Fig6Table renders the figure.
func Fig6Table(points []Fig6Point) *Table {
	t := &Table{
		Title:   "Hadoop data aggregator vs CPU cores — Figure 6",
		Columns: []string{"word-len", "cores", "Mb/s", "pairs", "elapsed"},
		Notes: []string{
			"paper shape: throughput scales with cores to ≈7.5 Gb/s (link-bound) at 16 cores;",
			"longer words (fewer pairs per byte) sustain higher Mb/s than shorter ones",
		},
	}
	for _, p := range points {
		t.Add(fmt.Sprintf("WC %d char", p.WordLen), fmt.Sprint(p.Cores),
			fmt.Sprintf("%.0f", p.ThroughputMbps), fmt.Sprint(p.Pairs), p.Elapsed.Round(time.Millisecond).String())
	}
	return t
}
