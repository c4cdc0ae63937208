package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
)

// acQuestion builds the test's canonical question for an object id.
func acQuestion(id int) query.ReuseQuestion {
	return query.ReuseQuestion{ObjectID: id, Attr: "Protein", N: 4}
}

// acMean is the deterministic mean the tests expect per object id — the
// stand-in for the simulator's pure function of the question.
func acMean(id int) float64 { return float64(id)*10 + 0.5 }

// acFill resolves one question through the cache with a deterministic
// pay, failing the test on error.
func acFill(t *testing.T, c *answerCache, id int) float64 {
	t.Helper()
	means, _, err := c.resolve(context.Background(), "d", []query.ReuseQuestion{acQuestion(id)}, func(miss []int) ([]float64, error) {
		return []float64{acMean(id)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return means[0]
}

// TestAnswerCacheSingleFlight pins fill coalescing: concurrent resolves
// of the same question set trigger exactly one pay — the first locker
// claims every key in one pass, everyone else either hits or joins the
// in-flight fill (counting as a hit: they pay nothing).
func TestAnswerCacheSingleFlight(t *testing.T) {
	c := newAnswerCache(64, 0, time.Now)
	qs := []query.ReuseQuestion{acQuestion(1), acQuestion(2)}
	const workers = 8
	var payCalls atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			means, _, err := c.resolve(context.Background(), "d", qs, func(miss []int) ([]float64, error) {
				payCalls.Add(1)
				time.Sleep(time.Millisecond) // widen the join window
				out := make([]float64, len(miss))
				for k, i := range miss {
					out[k] = acMean(qs[i].ObjectID)
				}
				return out, nil
			})
			if err != nil {
				t.Errorf("resolve: %v", err)
				return
			}
			for i, q := range qs {
				if means[i] != acMean(q.ObjectID) {
					t.Errorf("question %d: mean %v, want %v", i, means[i], acMean(q.ObjectID))
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := payCalls.Load(); n != 1 {
		t.Fatalf("pay ran %d times, want 1 (single flight)", n)
	}
	st := c.stats()
	if st.Misses != int64(len(qs)) {
		t.Fatalf("misses = %d, want %d", st.Misses, len(qs))
	}
	// Every non-filling lookup was served without paying — a ready hit or
	// an in-flight join, and joins count as hits once the fill lands.
	if got, want := st.Hits, int64((workers-1)*len(qs)); got != want {
		t.Fatalf("hits = %d, want %d (waits %d)", got, want, st.InflightWaits)
	}
	if st.InflightWaits > st.Hits {
		t.Fatalf("waits %d exceed hits %d", st.InflightWaits, st.Hits)
	}
}

// TestAnswerCacheLRUEviction pins the eviction order: capacity 2, the
// recently-touched entry survives, the least recently used one goes.
func TestAnswerCacheLRUEviction(t *testing.T) {
	c := newAnswerCache(2, 0, time.Now)
	acFill(t, c, 1)
	acFill(t, c, 2)
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := c.peek("d", acQuestion(1)); !ok {
		t.Fatal("object 1 not cached")
	}
	acFill(t, c, 3)
	if _, ok := c.peek("d", acQuestion(2)); ok {
		t.Fatal("LRU victim 2 survived")
	}
	if v, ok := c.peek("d", acQuestion(1)); !ok || v != acMean(1) {
		t.Fatalf("object 1 = %v,%v after eviction", v, ok)
	}
	if v, ok := c.peek("d", acQuestion(3)); !ok || v != acMean(3) {
		t.Fatalf("object 3 = %v,%v after fill", v, ok)
	}
	st := c.stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("evictions %d size %d, want 1 and 2", st.Evictions, st.Size)
	}
}

// TestAnswerCacheTTLExpiry pins staleness bounding: entries older than
// the TTL are dropped at lookup and the next asker refills.
func TestAnswerCacheTTLExpiry(t *testing.T) {
	var nanos atomic.Int64
	clock := func() time.Time { return time.Unix(0, nanos.Load()) }
	c := newAnswerCache(8, time.Minute, clock)
	acFill(t, c, 1)
	nanos.Store(int64(30 * time.Second))
	if _, ok := c.peek("d", acQuestion(1)); !ok {
		t.Fatal("entry expired before its TTL")
	}
	nanos.Store(int64(2 * time.Minute))
	if _, ok := c.peek("d", acQuestion(1)); ok {
		t.Fatal("entry survived past its TTL")
	}
	if st := c.stats(); st.Expirations != 1 || st.Size != 0 {
		t.Fatalf("expirations %d size %d, want 1 and 0", st.Expirations, st.Size)
	}
	// The next asker refills and the fresh entry serves again.
	if v := acFill(t, c, 1); v != acMean(1) {
		t.Fatalf("refill = %v", v)
	}
	if _, ok := c.peek("d", acQuestion(1)); !ok {
		t.Fatal("refilled entry absent")
	}
}

// TestAnswerCacheFailedFillWaiterRetries pins the failure path: a waiter
// joined onto a fill whose filler errors must degrade to its own direct
// (uncached) purchase, and the failed entry must leave the map so later
// askers refill instead of hitting a poisoned key.
func TestAnswerCacheFailedFillWaiterRetries(t *testing.T) {
	c := newAnswerCache(64, 0, time.Now)
	qs := []query.ReuseQuestion{acQuestion(9)}
	fillerIn := make(chan struct{})
	release := make(chan struct{})
	fillerDone := make(chan error, 1)
	go func() {
		_, _, err := c.resolve(context.Background(), "d", qs, func([]int) ([]float64, error) {
			close(fillerIn)
			<-release
			return nil, errors.New("crowd down")
		})
		fillerDone <- err
	}()
	<-fillerIn

	waiterDone := make(chan error, 1)
	var waiterMeans []float64
	var waiterReused []bool
	go func() {
		means, reused, err := c.resolve(context.Background(), "d", qs, func(miss []int) ([]float64, error) {
			return []float64{acMean(9)}, nil
		})
		waiterMeans, waiterReused = means, reused
		waiterDone <- err
	}()
	// The waiter must have registered as an in-flight join before the
	// filler is allowed to fail.
	deadline := time.Now().Add(5 * time.Second)
	for c.waits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the in-flight fill")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if err := <-fillerDone; err == nil {
		t.Fatal("filler's error was swallowed")
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter failed instead of retrying directly: %v", err)
	}
	if waiterMeans[0] != acMean(9) || waiterReused[0] {
		t.Fatalf("waiter retry: mean %v reused %v", waiterMeans[0], waiterReused[0])
	}
	// The waiter's retry was uncached and the failed entry is gone, so the
	// key reads absent until someone refills.
	if _, ok := c.peek("d", acQuestion(9)); ok {
		t.Fatal("failed fill left an entry behind")
	}
	if v := acFill(t, c, 9); v != acMean(9) {
		t.Fatalf("refill after failure = %v", v)
	}
}

// TestAnswerCachePublish pins Publish semantics: first writer wins (a
// later publish of the same key is a no-op, as is publishing over an
// in-flight fill), and Peek never blocks on an in-flight entry.
func TestAnswerCachePublish(t *testing.T) {
	c := newAnswerCache(8, 0, time.Now)
	c.publish("d", acQuestion(1), acMean(1))
	c.publish("d", acQuestion(1), -99) // must not clobber
	if v, ok := c.peek("d", acQuestion(1)); !ok || v != acMean(1) {
		t.Fatalf("published entry = %v,%v", v, ok)
	}
	if st := c.stats(); st.Published != 1 {
		t.Fatalf("published = %d, want 1", st.Published)
	}

	// In-flight fill: publish is ignored, peek reports a non-blocking
	// miss, and the filler's value wins.
	fillerIn := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := c.resolve(context.Background(), "d", []query.ReuseQuestion{acQuestion(2)}, func([]int) ([]float64, error) {
			close(fillerIn)
			<-release
			return []float64{acMean(2)}, nil
		}); err != nil {
			t.Errorf("fill: %v", err)
		}
	}()
	<-fillerIn
	if _, ok := c.peek("d", acQuestion(2)); ok {
		t.Fatal("peek returned an in-flight entry")
	}
	c.publish("d", acQuestion(2), -99)
	close(release)
	<-done
	if v, ok := c.peek("d", acQuestion(2)); !ok || v != acMean(2) {
		t.Fatalf("filler's value lost to a publish: %v,%v", v, ok)
	}
}

// TestAnswerCacheHammer races 16 goroutines over a small key space with
// a tiny capacity, an expiring TTL on an advancing fake clock, failing
// fills, peeks and publishes — every returned mean must still be the
// key's deterministic value. Run under -race in CI's hammer job.
func TestAnswerCacheHammer(t *testing.T) {
	var nanos atomic.Int64
	clock := func() time.Time { return time.Unix(0, nanos.Load()) }
	c := newAnswerCache(8, 500*time.Nanosecond, clock)
	attrs := []string{"Protein", "Calories", "Fat"}
	meanOf := func(q query.ReuseQuestion) float64 {
		return float64(q.ObjectID)*100 + float64(len(q.Attr)) + float64(q.N)
	}
	const (
		workers = 16
		iters   = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				nanos.Add(7)
				q := query.ReuseQuestion{
					ObjectID: (w + i) % 12,
					Attr:     attrs[(w*3+i)%len(attrs)],
					N:        2 + (i % 2),
				}
				switch i % 4 {
				case 0, 1:
					qs := []query.ReuseQuestion{q,
						{ObjectID: (q.ObjectID + 1) % 12, Attr: q.Attr, N: q.N}}
					fail := (w+i)%7 == 0
					means, _, err := c.resolve(context.Background(), "d", qs, func(miss []int) ([]float64, error) {
						if fail {
							return nil, fmt.Errorf("injected fill failure")
						}
						out := make([]float64, len(miss))
						for k, j := range miss {
							out[k] = meanOf(qs[j])
						}
						return out, nil
					})
					if err != nil {
						continue // injected, or degraded onto an injected one
					}
					for j, got := range means {
						if want := meanOf(qs[j]); got != want {
							t.Errorf("resolve %+v = %v, want %v", qs[j], got, want)
						}
					}
				case 2:
					if v, ok := c.peek("d", q); ok && v != meanOf(q) {
						t.Errorf("peek %+v = %v, want %v", q, v, meanOf(q))
					}
				case 3:
					c.publish("d", q, meanOf(q))
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.stats()
	if st.Size > st.Capacity {
		t.Fatalf("size %d above capacity %d", st.Size, st.Capacity)
	}
}

// serveRowsEqual compares two served row sets bit-for-bit.
func serveRowsEqual(t *testing.T, got, want []Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ObjectID != want[i].ObjectID || got[i].SortKey != want[i].SortKey {
			t.Fatalf("%s row %d: %+v vs %+v", label, i, got[i], want[i])
		}
		for a, v := range want[i].Values {
			if got[i].Values[a] != v {
				t.Fatalf("%s row %d attr %q: %v vs %v", label, i, a, got[i].Values[a], v)
			}
		}
	}
}

// TestReuseEqualBillingPin is the tier-level billing contract: the first
// reuse session pays exactly the memo-less bill (cold bit-equality,
// ledger included), the second is served from cache — bit-equal rows at
// strictly lower OnlineSpent, with the saving accounted to the mill —
// and a tier without a cache ignores the flag entirely.
func TestReuseEqualBillingPin(t *testing.T) {
	const stmt = "SELECT Protein, Calories WHERE Dessert > 0.5"
	ctx := context.Background()

	plain := newReplicaTier(t, 1, 12, Config{})
	want, err := plain.Execute(ctx, Request{Statement: stmt})
	if err != nil {
		t.Fatal(err)
	}

	cached := newReplicaTier(t, 1, 12, Config{AnswerCache: 1024})
	cold, err := cached.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, cold.Rows, want.Rows, "cold reuse")
	if !cold.Reuse || cold.AnswersReused != 0 {
		t.Fatalf("cold session: reuse %v, reused %d", cold.Reuse, cold.AnswersReused)
	}
	if cold.OnlineSpent != want.OnlineSpent {
		t.Fatalf("cold reuse spent %v, memo-less tier %v", cold.OnlineSpent, want.OnlineSpent)
	}

	warm, err := cached.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, warm.Rows, want.Rows, "warm reuse")
	if warm.OnlineSpent >= cold.OnlineSpent {
		t.Fatalf("warm spend %v not below cold %v", warm.OnlineSpent, cold.OnlineSpent)
	}
	if warm.AnswersReused == 0 {
		t.Fatal("warm session reused nothing")
	}
	if int64(warm.OnlineSpent)+warm.SpendSavedMills != int64(want.OnlineSpent) {
		t.Fatalf("savings don't balance: %d + %d != %d",
			warm.OnlineSpent, warm.SpendSavedMills, want.OnlineSpent)
	}
	st := cached.Stats()
	if st.AnswerCache.Hits == 0 || st.AnswerCache.Size == 0 {
		t.Fatalf("answer cache stats empty: %+v", st.AnswerCache)
	}
	cs := st.Classes[DefaultClass]
	if cs.ReuseSessions != 2 || cs.AnswersReused != warm.AnswersReused || cs.SpendSavedMills != warm.SpendSavedMills {
		t.Fatalf("class reuse counters: %+v", cs)
	}

	// Cache-off tier: the flag is ignored and the session is bit-equal to
	// today's path.
	off := newReplicaTier(t, 1, 12, Config{})
	res, err := off.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, res.Rows, want.Rows, "cache-off")
	if res.Reuse || res.OnlineSpent != want.OnlineSpent {
		t.Fatalf("cache-off session: reuse %v spent %v, want %v", res.Reuse, res.OnlineSpent, want.OnlineSpent)
	}
	if off.Stats().Classes[DefaultClass].ReuseSessions != 0 {
		t.Fatal("cache-off tier counted a reuse session")
	}
}

// TestShardedReuseMatchesUnsharded pins the cross-shard path: a
// scattered reuse session returns the same rows as the unsharded reuse
// session, and a repeat of it is served from the shared cache across
// every shard — strictly cheaper, reuse counters summed over shards.
func TestShardedReuseMatchesUnsharded(t *testing.T) {
	const stmt = "SELECT Protein WHERE Dessert > 0.5"
	ctx := context.Background()

	un := newReplicaTier(t, 1, 16, Config{AnswerCache: 1024})
	want, err := un.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}

	sh := newReplicaTier(t, 2, 16, Config{Shards: 4, Partition: PartitionHash, AnswerCache: 1024})
	cold, err := sh.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, cold.Rows, want.Rows, "sharded cold")
	if !cold.Reuse || cold.AnswersReused != 0 {
		t.Fatalf("sharded cold session: reuse %v, reused %d", cold.Reuse, cold.AnswersReused)
	}
	warm, err := sh.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, warm.Rows, want.Rows, "sharded warm")
	if warm.AnswersReused == 0 {
		t.Fatal("sharded warm session reused nothing")
	}
	if warm.OnlineSpent >= cold.OnlineSpent {
		t.Fatalf("sharded warm spend %v not below cold %v", warm.OnlineSpent, cold.OnlineSpent)
	}
	if int64(warm.OnlineSpent)+warm.SpendSavedMills != int64(cold.OnlineSpent) {
		t.Fatalf("sharded savings don't balance: %d + %d != %d",
			warm.OnlineSpent, warm.SpendSavedMills, cold.OnlineSpent)
	}
	cs := sh.Stats().Classes[DefaultClass]
	if cs.ReuseSessions != 2 || cs.AnswersReused != warm.AnswersReused {
		t.Fatalf("sharded class reuse counters: %+v", cs)
	}
}

// TestReuseConcurrentSessionsRace hammers one cached tier with 16
// concurrent reuse sessions over overlapping object windows: every
// session must return rows bit-equal to the memo-less tier's, whatever
// mix of fills, joins and hits it saw. Run under -race in CI.
func TestReuseConcurrentSessionsRace(t *testing.T) {
	const stmt = "SELECT Protein WHERE Dessert > 0.5"
	ctx := context.Background()
	plain := newReplicaTier(t, 1, 16, Config{})
	want, err := plain.Execute(ctx, Request{Statement: stmt})
	if err != nil {
		t.Fatal(err)
	}
	wantRow := make(map[int]Row, len(want.Rows))
	for _, r := range want.Rows {
		wantRow[r.ObjectID] = r
	}

	tier := newReplicaTier(t, 2, 16, Config{AnswerCache: 1024})
	// Warm the plan so concurrent sessions contend only on answers.
	if _, err := tier.Execute(ctx, Request{Statement: stmt, MaxObjects: 1}); err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := tier.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
			if err != nil {
				t.Errorf("session %d: %v", w, err)
				return
			}
			for _, r := range res.Rows {
				ref, ok := wantRow[r.ObjectID]
				if !ok {
					t.Errorf("session %d: unexpected row %d", w, r.ObjectID)
					continue
				}
				for a, v := range ref.Values {
					if r.Values[a] != v {
						t.Errorf("session %d row %d attr %q: %v vs %v", w, r.ObjectID, a, r.Values[a], v)
					}
				}
			}
			if len(res.Rows) != len(want.Rows) {
				t.Errorf("session %d: %d rows, want %d", w, len(res.Rows), len(want.Rows))
			}
		}(w)
	}
	wg.Wait()
	st := tier.Stats().AnswerCache
	if st.Hits+st.InflightWaits == 0 {
		t.Fatalf("no sharing happened across %d sessions: %+v", workers, st)
	}
}
