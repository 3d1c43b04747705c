package infer

import (
	"context"
	"sync"
	"time"
)

// CoalescerOptions configures a Coalescer.
type CoalescerOptions struct {
	// MaxBatch flushes a batch as soon as this many samples are pending
	// (0 = 64). Oversized submissions are split across flushes.
	MaxBatch int
	// MaxWait flushes whatever is pending once the oldest submission has
	// waited this long (0 = 1ms). This bounds the latency a lone request
	// pays for batching.
	MaxWait time.Duration
}

// Coalescer defaults. Submitters block once queueCap submissions are
// waiting for the dispatcher.
const (
	defaultMaxBatch = 64
	defaultMaxWait  = time.Millisecond
	queueCap        = 256
)

// Coalescer merges PredictBatch calls from many goroutines into batches for
// a Backend, flushing on size or deadline. One dispatcher goroutine owns all
// batching state, so the only synchronisation points are the submission
// channel and each request's done channel. No shipped flow uses it (see the
// package comment).
type Coalescer struct {
	backend Backend
	opt     CoalescerOptions

	submit chan *batchReq
	quit   chan struct{} // closed by Close: stop accepting
	done   chan struct{} // closed when the dispatcher has drained and exited

	closeOnce sync.Once
}

// batchReq is one submission: xs samples that may be served across several
// flushes. out/err are written only by the dispatcher and read by the
// submitter only after done is closed.
type batchReq struct {
	ctx    context.Context
	xs     [][]float64
	out    [][]float64
	served int
	err    error
	done   chan struct{}
}

// NewCoalescer starts a coalescer over backend. Call Close to stop its
// dispatcher and drain pending work.
func NewCoalescer(backend Backend, opt CoalescerOptions) *Coalescer {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = defaultMaxBatch
	}
	if opt.MaxWait <= 0 {
		opt.MaxWait = defaultMaxWait
	}
	c := &Coalescer{
		backend: backend,
		opt:     opt,
		submit:  make(chan *batchReq, queueCap),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.dispatch()
	return c
}

// Close stops accepting submissions, flushes everything already queued, and
// waits for the dispatcher to exit. Safe to call more than once.
func (c *Coalescer) Close() {
	c.closeOnce.Do(func() { close(c.quit) })
	<-c.done
}

// PredictBatch submits xs as one unit — a mapping worker hands over a whole
// node's cut embeddings in one call — and blocks until every sample is
// classified, ctx is done, or the coalescer closes. The samples may be
// merged with other callers' into shared forward passes.
func (c *Coalescer) PredictBatch(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	req := &batchReq{
		ctx:  ctx,
		xs:   xs,
		out:  make([][]float64, len(xs)),
		done: make(chan struct{}),
	}
	select {
	case c.submit <- req:
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.quit:
		return nil, ErrClosed
	}
	select {
	case <-req.done:
		if req.err != nil {
			return nil, req.err
		}
		return req.out, nil
	case <-ctx.Done():
		// The dispatcher may still classify the samples; the results are
		// simply dropped with the request.
		return nil, ctx.Err()
	case <-c.done:
		// Dispatcher exited; the request may have been served in the final
		// drain just before.
		select {
		case <-req.done:
			if req.err != nil {
				return nil, req.err
			}
			return req.out, nil
		default:
			return nil, ErrClosed
		}
	}
}

// pendingReq tracks how much of a submission is still unserved.
type pendingReq struct {
	req *batchReq
	off int
}

// dispatch is the single-owner batching loop.
func (c *Coalescer) dispatch() {
	defer close(c.done)

	var pending []pendingReq
	samples := 0

	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	armed := false

	admit := func(req *batchReq) {
		if err := req.ctx.Err(); err != nil {
			req.err = err
			close(req.done)
			return
		}
		pending = append(pending, pendingReq{req: req})
		samples += len(req.xs)
		if !armed {
			timer.Reset(c.opt.MaxWait)
			armed = true
		}
		for samples >= c.opt.MaxBatch {
			c.flush(&pending, &samples, c.opt.MaxBatch)
		}
	}

	for {
		var timerC <-chan time.Time
		if armed {
			timerC = timer.C
		}
		select {
		case req := <-c.submit:
			admit(req)
		case <-timerC:
			armed = false
			if samples > 0 {
				c.flush(&pending, &samples, samples)
			}
		case <-c.quit:
			// Serve whatever snuck into the buffered queue before Close,
			// then flush the lot. Submitters that lose the race see c.done
			// close and fall back to ErrClosed.
			for {
				select {
				case req := <-c.submit:
					admit(req)
					continue
				default:
				}
				break
			}
			for samples > 0 {
				c.flush(&pending, &samples, min(samples, c.opt.MaxBatch))
			}
			return
		}
	}
}

// flush classifies up to take samples from the front of the pending queue
// and distributes the results. Requests whose context died while queued are
// dropped without spending backend time on them — the mid-batch
// cancellation path.
func (c *Coalescer) flush(pending *[]pendingReq, samples *int, take int) {
	type span struct {
		req  *batchReq
		off  int
		n    int
		base int // offset of the span inside the flushed batch
	}
	var (
		xs    [][]float64
		spans []span
	)
	q := *pending
	for take > 0 && len(q) > 0 {
		p := &q[0]
		if err := p.req.ctx.Err(); err != nil {
			// Canceled while queued: fail it now, compute nothing for it.
			*samples -= len(p.req.xs) - p.off
			p.req.err = err
			close(p.req.done)
			q = q[1:]
			continue
		}
		n := len(p.req.xs) - p.off
		if n > take {
			n = take
		}
		spans = append(spans, span{req: p.req, off: p.off, n: n, base: len(xs)})
		xs = append(xs, p.req.xs[p.off:p.off+n]...)
		p.off += n
		take -= n
		*samples -= n
		if p.off == len(p.req.xs) {
			q = q[1:]
		}
	}
	if len(q) == 0 {
		q = nil // let the backing array go once the queue empties
	}
	*pending = q
	if len(xs) == 0 {
		return
	}

	out, err := c.backend.ForwardBatch(xs)
	if err != nil {
		for _, sp := range spans {
			sp.req.err = err
			close(sp.req.done)
		}
		// A split request may still hold its unserved tail at the queue
		// head; its done channel is closed now, so the tail must go too or
		// a later flush would close it twice.
		if last := spans[len(spans)-1].req; len(q) > 0 && q[0].req == last {
			*samples -= len(last.xs) - q[0].off
			q = q[1:]
			if len(q) == 0 {
				q = nil
			}
			*pending = q
		}
		return
	}
	for _, sp := range spans {
		copy(sp.req.out[sp.off:sp.off+sp.n], out[sp.base:sp.base+sp.n])
		sp.req.served += sp.n
		if sp.req.served == len(sp.req.xs) {
			close(sp.req.done)
		}
	}
}
