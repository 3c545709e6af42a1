package cache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/value"
)

// notMod304 is the upstream revalidation answer the stress tests feed back.
const notMod304 = "HTTP/1.1 304 Not Modified\r\n\r\n"

// TestStaleRevalidateStress hammers one repeatedly-expiring key from 64
// goroutines under -race while a driver advances the clock: every expiry
// wave must claim exactly one background revalidation (the claim window is
// held open by a simulated slow upstream), a failing refresh must leave the
// stale entry serving (no goroutine ever wedges waiting), and teardown must
// restore pool ref-balance (refgets == refputs).
func TestStaleRevalidateStress(t *testing.T) {
	before := buffer.Global.Counters()
	c := New(Config{Proto: HTTPGet{}, Workers: 4, TTL: time.Second, StaleTTL: time.Hour})
	var clock atomic.Int64
	c.now = clock.Load

	req := decodeHTTP(t, true, reqA)
	info := HTTPGet{}.Request(req)
	seed := func(f *Flight) {
		resp := decodeHTTP(t, false, respSWR)
		ri := HTTPGet{}.Response(resp)
		f.Fill([]byte(respSWR), ri)
		resp.Release()
	}
	if f, leader := c.Begin(info, Waiter{}); !leader {
		t.Fatal("expected to lead the seed fill")
	} else {
		seed(f)
	}

	const N = 64
	const iters = 200
	var inflight, violations, claims, refills atomic.Int32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // the clock: each tick pushes the entry past max-age=1
		for {
			select {
			case <-stop:
				return
			default:
				clock.Add(int64(400 * time.Millisecond))
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	for g := 0; g < N; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				v, ok, rv := c.Get(g%4, info)
				if ok {
					v.Release()
				}
				if rv != nil {
					if cur := inflight.Add(1); cur > 1 {
						violations.Add(1)
					}
					claims.Add(1)
					time.Sleep(200 * time.Microsecond) // slow upstream
					inflight.Add(-1)
					msg := HTTPGet{}.MakeReval(rv.Req, rv.Region)
					if msg.IsNull() {
						violations.Add(1)
						rv.F.Abort()
						continue
					}
					if !rv.F.AttachRequest(msg) {
						msg.Release()
					}
					if i%3 == 0 {
						// Upstream died: the refresh fails, stale keeps serving.
						rv.F.Abort()
					} else {
						rv.F.Fill([]byte(notMod304),
							RespInfo{Match: true, NotModified: true})
					}
					continue
				}
				if !ok {
					// Hard-expired under a racing clock jump: refill so the
					// pipeline keeps moving.
					f, leader := c.Begin(info, Waiter{
						Deliver: func(view value.Value) { view.Release() },
					})
					if leader {
						refills.Add(1)
						seed(f)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)

	if n := violations.Load(); n != 0 {
		t.Fatalf("%d single-flight violations (more than one revalidation in flight)", n)
	}
	if claims.Load() == 0 {
		t.Fatal("stress sequence claimed no revalidations — clock never crossed expiry")
	}
	cs := c.Counters()
	if cval(cs, "stale_served") == 0 {
		t.Fatal("no stale hits recorded")
	}
	if cval(cs, "revalidated") == 0 {
		t.Fatal("no upstream 304 extensions recorded")
	}

	c.Close()
	req.Release()
	after := buffer.Global.Counters()
	gets := cval(after, "refgets") - cval(before, "refgets")
	puts := cval(after, "refputs") - cval(before, "refputs")
	if gets != puts {
		t.Fatalf("pool ref leak: refgets delta %d != refputs delta %d", gets, puts)
	}
}

// TestRevalUpstreamDeathServesStale is the deterministic fault-injection
// half: the upstream is killed mid-revalidation (the conditional request
// never completes) and the cache must degrade gracefully — the stale entry
// keeps serving inside its window, the claim is re-armed for the next
// lookup, a later successful refresh restores freshness, and the hard
// deadline still bounds total staleness.
func TestRevalUpstreamDeathServesStale(t *testing.T) {
	c := newTestCache(t, Config{Proto: HTTPGet{}, Workers: 1,
		TTL: 10 * time.Second, StaleTTL: 30 * time.Second})
	var clock atomic.Int64
	c.now = clock.Load

	req := decodeHTTP(t, true, reqA)
	defer req.Release()
	info := HTTPGet{}.Request(req)
	f, leader := c.Begin(info, Waiter{})
	if !leader {
		t.Fatal("expected to lead")
	}
	resp := decodeHTTP(t, false, respSWR)
	f.Fill([]byte(respSWR), HTTPGet{}.Response(resp))
	resp.Release()

	// Past max-age=1: stale hit claims the revalidation...
	clock.Store(int64(2 * time.Second))
	v, ok, rv := c.Get(0, info)
	if !ok || rv == nil {
		t.Fatalf("want stale hit with claim, got ok=%v rv=%v", ok, rv)
	}
	v.Release()
	// ...and the upstream dies before answering.
	msg := HTTPGet{}.MakeReval(rv.Req, rv.Region)
	if msg.IsNull() {
		t.Fatal("revalidation image did not parse")
	}
	if !rv.F.AttachRequest(msg) {
		msg.Release()
	}
	rv.F.Abort()

	// Graceful degradation: the stale entry still serves, and the claim
	// re-arms for this lookup.
	v, ok, rv = c.Get(0, info)
	if !ok {
		t.Fatal("stale entry vanished after a failed revalidation")
	}
	v.Release()
	if rv == nil {
		t.Fatal("failed revalidation did not re-arm the claim")
	}

	// This time the upstream answers: a 304 restores freshness.
	msg = HTTPGet{}.MakeReval(rv.Req, rv.Region)
	if !rv.F.AttachRequest(msg) {
		msg.Release()
	}
	rv.F.Fill([]byte(notMod304), RespInfo{Match: true, NotModified: true})
	v, ok, rv = c.Get(0, info)
	if !ok || rv != nil {
		t.Fatalf("want fresh hit after 304, got ok=%v claimed=%v", ok, rv != nil)
	}
	v.Release()
	if got := cval(c.Counters(), "revalidated"); got != 1 {
		t.Fatalf("revalidated = %d, want 1", got)
	}

	// The hard deadline still holds: a revalidation that keeps failing
	// bounds staleness at expires + StaleTTL, then the entry dies.
	clock.Store(int64(37 * time.Second)) // extension expires at 12s, hard deadline 42s
	v, ok, rv = c.Get(0, info)
	if !ok || rv == nil {
		t.Fatal("want stale hit with claim inside the window")
	}
	v.Release()
	rv.Region.Release()
	rv.F.Abort()
	clock.Store(int64(47 * time.Second))
	if _, ok, _ := c.Get(0, info); ok {
		t.Fatal("entry served past its hard staleness deadline")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after hard expiry, want 0", c.Len())
	}
	if got := cval(c.Counters(), "stale_served"); got != 3 {
		t.Fatalf("stale_served = %d, want 3", got)
	}
}

// TestGetRacesRevalidationExtend is the regression test for the race
// between a hit and a 304 refresh: Get reads an entry's deadlines under
// its shard lock while a revalidation's Fill re-arms them (extendLocked).
// One goroutine hits from shard 1 while the main goroutine keeps pushing
// the entry into its stale window from shard 0 and answering each claimed
// revalidation with a 304. Under -race the test fails if the deadlines are
// written without the shard locks; in any mode every 304 must re-arm the
// entry so that it serves fresh again.
func TestGetRacesRevalidationExtend(t *testing.T) {
	c := newTestCache(t, Config{Proto: HTTPGet{}, Workers: 2,
		TTL: 10 * time.Second, StaleTTL: time.Hour})
	var clock atomic.Int64
	c.now = clock.Load

	req := decodeHTTP(t, true, reqA)
	defer req.Release()
	info := HTTPGet{}.Request(req)
	f, leader := c.Begin(info, Waiter{})
	if !leader {
		t.Fatal("expected to lead")
	}
	resp := decodeHTTP(t, false, respSWR)
	f.Fill([]byte(respSWR), HTTPGet{}.Response(resp))
	resp.Release()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: hammers Get under the shard lock only
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, ok, rv := c.Get(1, info)
			if ok {
				v.Release()
			}
			if rv != nil {
				rv.Region.Release()
				rv.F.Abort()
			}
		}
	}()

	refreshed := 0
	for i := 0; i < 200; i++ {
		clock.Store(int64(2*time.Second) + int64(i)*int64(time.Millisecond))
		v, ok, rv := c.Get(0, info)
		if !ok {
			t.Fatalf("iteration %d: the stale entry stopped serving", i)
		}
		v.Release()
		if rv != nil {
			rv.Region.Release()
			rv.F.Fill([]byte(notMod304), RespInfo{Match: true, NotModified: true})
			refreshed++
			// The 304 re-armed the deadlines from the current clock, so
			// rewinding it must leave the entry fresh: no new claim.
			clock.Store(0)
			v, ok, rv := c.Get(0, info)
			if !ok || rv != nil {
				t.Fatalf("iteration %d: after a 304, hit=%v claimed=%v; want a fresh hit", i, ok, rv != nil)
			}
			v.Release()
		}
	}
	close(stop)
	wg.Wait()
	if refreshed == 0 {
		t.Fatal("no revalidation was ever claimed from shard 0")
	}
}
