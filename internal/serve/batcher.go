package serve

import (
	"sync"
	"time"
)

// batchOut is one request's answer from a batch flush. q is a copy owned
// by the request (the evaluator's row is reused on the next flush).
type batchOut struct {
	action     int
	q          []float64
	generation int
	size       int // batch size this request was evaluated in
	err        error
}

// batchItem is one in-flight request parked in the collector. out is
// buffered so the collector never blocks on a reply, even if the waiting
// handler has been abandoned.
type batchItem struct {
	state    []float64
	includeQ bool
	out      chan batchOut
}

// batcher micro-batches one tenant's predict/act evaluations: requests
// accumulate for at most `window` (started at the first item) or until
// `max` items are parked, then the whole batch runs as a single GEMM
// through qnet.Evaluator.QValuesBatch. Row i of that GEMM is bit-identical
// to the per-request QValues path, so batching changes latency and
// throughput but never an answer. A single-element flush falls through to
// the per-request path. One collector goroutine per tenant serializes that
// tenant's evaluations — the batch itself is the parallelism.
type batcher struct {
	svc    *Service
	t      *Tenant
	window time.Duration
	max    int
	items  chan *batchItem
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
}

func newBatcher(svc *Service, t *Tenant, window time.Duration, max int) *batcher {
	return &batcher{
		svc:    svc,
		t:      t,
		window: window,
		max:    max,
		// The channel holds a full batch beyond the one being collected so
		// submitters rarely block on the collector.
		items: make(chan *batchItem, 2*max),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// submit parks the request with the collector and reports true; after
// close it reports false and the caller evaluates inline — the no-drop
// guarantee across drain.
func (b *batcher) submit(it *batchItem) bool {
	select {
	case <-b.stop:
		return false
	default:
	}
	select {
	case b.items <- it:
		return true
	case <-b.stop:
		return false
	}
}

// await blocks for the item's reply. It returns ok=false when the
// collector exited without answering — a submit that raced the stop
// signal can strand its item in the buffer after the drain pass; the
// caller then evaluates inline. Once done is closed no flush can run, so
// a final non-blocking read of out is race-free.
func (b *batcher) await(it *batchItem) (batchOut, bool) {
	select {
	case bo := <-it.out:
		return bo, true
	case <-b.done:
		select {
		case bo := <-it.out:
			return bo, true
		default:
			return batchOut{}, false
		}
	}
}

// close stops the collector, flushes everything already parked, and waits
// for it to exit. Idempotent.
func (b *batcher) close() {
	b.once.Do(func() { close(b.stop) })
	<-b.done
}

func (b *batcher) run() {
	defer close(b.done)
	pending := make([]*batchItem, 0, b.max)
	var timer *time.Timer
	var timerC <-chan time.Time
	flush := func() {
		if timer != nil {
			timer.Stop()
			timer, timerC = nil, nil
		}
		if len(pending) > 0 {
			b.flush(pending)
			pending = pending[:0]
		}
	}
	for {
		select {
		case it := <-b.items:
			pending = append(pending, it)
			if len(pending) >= b.max {
				flush()
			} else if timer == nil {
				timer = time.NewTimer(b.window)
				timerC = timer.C
			}
		case <-timerC:
			timer, timerC = nil, nil
			flush()
		case <-b.stop:
			// Drain: answer everything already parked, then exit. Later
			// submits see the closed stop channel and evaluate inline.
			for {
				select {
				case it := <-b.items:
					pending = append(pending, it)
				default:
					flush()
					return
				}
			}
		}
	}
}

// flush evaluates one collected batch against a single policy snapshot.
// Items whose state no longer matches the snapshot's input width (e.g. a
// hot-reload changed the observation size mid-batch) are answered
// individually with the same error text the per-request path produces;
// they never poison the batch for the valid items.
func (b *batcher) flush(pending []*batchItem) {
	size := len(pending)
	p := b.t.policy.Load()
	ev := p.acquire()
	defer p.release(ev)
	start := time.Now()

	b.svc.obs.Observe(HistBatchSize, float64(size))
	b.svc.obs.Observe(b.t.hBatch, float64(size))

	valid := pending[:0:0]
	for _, it := range pending {
		if len(it.state) != ev.ObservationSize() {
			// QValues rejects before evaluating; its error text is the
			// per-request contract.
			_, err := ev.QValues(it.state)
			it.out <- batchOut{err: err, generation: p.generation, size: size}
			continue
		}
		valid = append(valid, it)
	}
	switch len(valid) {
	case 0:
	case 1:
		// Single-element fallthrough: the per-request path, no GEMM.
		it := valid[0]
		qs, err := ev.QValues(it.state)
		it.out <- answer(p, qs, err, it.includeQ, size)
	default:
		states := make([][]float64, len(valid))
		for i, it := range valid {
			states[i] = it.state
		}
		qm, err := ev.QValuesBatch(states)
		if err != nil {
			for _, it := range valid {
				it.out <- batchOut{err: err, generation: p.generation, size: size}
			}
			break
		}
		qd := qm.RawData()
		na := ev.ActionCount()
		for i, it := range valid {
			it.out <- answer(p, qd[i*na:(i+1)*na], nil, it.includeQ, size)
		}
	}
	if n := len(valid); n > 0 {
		b.svc.noteEvalMS(msSince(start) / float64(n))
	}
}

// answer builds a batchOut from a Q row p evaluated through bestAction,
// the per-request handler's argmax, copying the row only when the caller
// asked for Q values.
func answer(p *Policy, qs []float64, err error, includeQ bool, size int) batchOut {
	out := batchOut{generation: p.generation, size: size, err: err}
	if err == nil {
		out.action, out.err = p.bestAction(qs)
	}
	if out.err == nil && includeQ {
		out.q = append([]float64(nil), qs...)
	}
	return out
}
