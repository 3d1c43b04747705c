package infer

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingBackend wraps a Backend and records every flush it sees.
type countingBackend struct {
	inner   Backend
	mu      sync.Mutex
	batches []int
	fail    atomic.Bool
}

var errBackend = errors.New("backend exploded")

func (c *countingBackend) Classes() int  { return c.inner.Classes() }
func (c *countingBackend) InputLen() int { return c.inner.InputLen() }

func (c *countingBackend) ForwardBatch(xs [][]float64) ([][]float64, error) {
	c.mu.Lock()
	c.batches = append(c.batches, len(xs))
	c.mu.Unlock()
	if c.fail.Load() {
		return nil, errBackend
	}
	return c.inner.ForwardBatch(xs)
}

func (c *countingBackend) sizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.batches...)
}

func newTestCoalescer(t *testing.T, opt CoalescerOptions) (*Coalescer, *countingBackend, Reference) {
	t.Helper()
	m := randomModel(5, 4, 8, 6, 77)
	ref := Reference{M: m}
	cb := &countingBackend{inner: NewEngine(m, Options{})}
	c := NewCoalescer(cb, opt)
	t.Cleanup(c.Close)
	return c, cb, ref
}

// TestCoalescerMatchesReference drives many producers through one coalescer
// and checks every caller gets exactly its own results, regardless of how
// submissions were merged or split across flushes.
func TestCoalescerMatchesReference(t *testing.T) {
	c, _, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 16, MaxWait: 200 * time.Microsecond})
	const producers = 8
	var wg sync.WaitGroup
	errs := make(chan error, producers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for iter := 0; iter < 30; iter++ {
				n := 1 + rng.Intn(40) // often larger than MaxBatch/producer share
				xs := randomBatch(ref.M, n, int64(p*1000+iter))
				got, err := c.PredictBatch(context.Background(), xs)
				if err != nil {
					errs <- err
					return
				}
				want, _ := ref.ForwardBatch(xs)
				for i := range xs {
					for cl := range want[i] {
						if got[i][cl] != want[i][cl] {
							errs <- fmt.Errorf("producer %d iter %d sample %d: results mixed up", p, iter, i)
							return
						}
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCoalescerFlushReasons checks the size and deadline triggers: an
// oversized submission goes out in MaxBatch-sized flushes without waiting
// on the deadline, and a lone under-sized one goes out on the deadline.
func TestCoalescerFlushReasons(t *testing.T) {
	c, cb, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 8, MaxWait: time.Hour})

	// 16 samples in one submission: two size-triggered flushes, no waiting
	// on the one-hour deadline.
	if _, err := c.PredictBatch(context.Background(), randomBatch(ref.M, 16, 1)); err != nil {
		t.Fatal(err)
	}
	if got := cb.sizes(); !reflect.DeepEqual(got, []int{8, 8}) {
		t.Fatalf("backend saw %v, want two batches of 8", got)
	}

	// A lone under-sized submission must go out on the deadline.
	c2, cb2, _ := newTestCoalescer(t, CoalescerOptions{MaxBatch: 64, MaxWait: time.Millisecond})
	t0 := time.Now()
	if _, err := c2.PredictBatch(context.Background(), randomBatch(ref.M, 1, 2)); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(t0); waited > time.Second {
		t.Fatalf("lone sample waited %v, deadline flush broken", waited)
	}
	if got := cb2.sizes(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("backend saw %v, want one deadline flush of 1", got)
	}
}

// TestCoalescerStress is the -race workhorse: many producers, small batches,
// mid-flight cancellations, and a Close racing the tail of the traffic.
func TestCoalescerStress(t *testing.T) {
	m := randomModel(5, 4, 8, 6, 78)
	cb := &countingBackend{inner: NewEngine(m, Options{})}
	c := NewCoalescer(cb, CoalescerOptions{MaxBatch: 8, MaxWait: 100 * time.Microsecond})

	const producers = 12
	var wg sync.WaitGroup
	var served, canceled, closed atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for iter := 0; iter < 50; iter++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Intn(3) == 0 {
					// A third of requests carry a deadline short enough to
					// fire while queued or mid-batch.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(200))*time.Microsecond)
				}
				xs := randomBatch(m, 1+rng.Intn(20), int64(iter))
				_, err := c.PredictBatch(ctx, xs)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					canceled.Add(1)
				case errors.Is(err, ErrClosed):
					closed.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
					return
				}
			}
		}(p)
	}
	// Close while traffic is still in flight on some runs.
	time.Sleep(2 * time.Millisecond)
	c.Close()
	wg.Wait()
	if served.Load() == 0 {
		t.Fatal("no request was ever served")
	}
	t.Logf("served=%d canceled=%d closed=%d flushes=%d",
		served.Load(), canceled.Load(), closed.Load(), len(cb.sizes()))
}

// TestCoalescerBackendError checks an erroring backend fails every caller in
// the flushed batch — including a request split across flushes — without
// double-closing or hanging anyone.
func TestCoalescerBackendError(t *testing.T) {
	c, cb, ref := newTestCoalescer(t, CoalescerOptions{MaxBatch: 8, MaxWait: time.Millisecond})
	cb.fail.Store(true)
	// 20 samples split across three flushes; every wait must resolve to the
	// backend error.
	if _, err := c.PredictBatch(context.Background(), randomBatch(ref.M, 20, 3)); !errors.Is(err, errBackend) {
		t.Fatalf("err = %v, want backend error", err)
	}
	// The coalescer must keep serving after a backend error clears.
	cb.fail.Store(false)
	if _, err := c.PredictBatch(context.Background(), randomBatch(ref.M, 4, 4)); err != nil {
		t.Fatalf("coalescer did not recover after backend error: %v", err)
	}
}

func TestCoalescerClose(t *testing.T) {
	m := randomModel(5, 4, 8, 6, 79)
	c := NewCoalescer(NewEngine(m, Options{}), CoalescerOptions{MaxBatch: 64, MaxWait: time.Hour})
	c.Close()
	c.Close() // idempotent
	if _, err := c.PredictBatch(context.Background(), randomBatch(m, 2, 5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
	}
}

// TestCoalescerDrainOnClose submits with a one-hour deadline, closes, and
// expects the pending batch to be served by the drain rather than dropped.
// A submission can legitimately lose the race against Close (ErrClosed), so
// the test retries until it observes an actual drain.
func TestCoalescerDrainOnClose(t *testing.T) {
	m := randomModel(5, 4, 8, 6, 80)
	for attempt := 0; attempt < 50; attempt++ {
		cb := &countingBackend{inner: NewEngine(m, Options{})}
		c := NewCoalescer(cb, CoalescerOptions{MaxBatch: 64, MaxWait: time.Hour})
		done := make(chan error, 1)
		go func() {
			_, err := c.PredictBatch(context.Background(), randomBatch(m, 3, 7))
			done <- err
		}()
		time.Sleep(time.Millisecond)
		c.Close()
		err := <-done
		if errors.Is(err, ErrClosed) {
			continue
		}
		if err != nil {
			t.Fatalf("drained request failed: %v", err)
		}
		if got := cb.sizes(); !reflect.DeepEqual(got, []int{3}) {
			t.Fatalf("backend saw %v, want one drain flush of 3", got)
		}
		return
	}
	t.Fatal("never observed a drain flush in 50 attempts")
}
