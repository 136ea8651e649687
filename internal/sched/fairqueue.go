// Package sched is the generator's multi-tenant job scheduler: a
// weighted-fair-queueing admission controller that decides which piece
// of work runs next when demand exceeds capacity.
//
// The design splits into two layers:
//
//   - FairQueue (this file) is the pure ordering structure: a
//     stride/virtual-time scheduler across tenants, with weighted
//     priority classes inside each tenant and cost-aware pass
//     accounting, so one trillion-edge job cannot monopolize dispatch
//     while cheap jobs wait. It is not safe for concurrent use — the
//     Scheduler wraps it in a mutex; the distributed master drives it
//     under its own lock.
//
//   - Scheduler (sched.go) adds admission control on top: per-tenant
//     token-bucket rate limits, concurrency quotas, bounded queues with
//     deadline/TTL load shedding, blocking Acquire/Release slot
//     semantics, and sched.* telemetry.
//
// Costs are expected edge counts, cheaply predictable up front from
// Theorem 1's closed form (core.EstimateRangeEdges, and the rounded
// expectation core.Plan puts in partition.Range.Edges, NSKG noise
// included), which is what makes cost-aware scheduling essentially free
// for TrillionG:
// fairness is apportioned over expected work, not job count.
package sched

// Class is a job's priority class. Classes share capacity by weight
// (not strict priority), so background work cannot starve under a
// constant interactive load — it just runs at a small fraction of the
// dispatch rate.
type Class uint8

const (
	// Interactive is latency-sensitive traffic (small ad-hoc ranges).
	Interactive Class = iota
	// Batch is the default class for planned workloads.
	Batch
	// Background is best-effort work: requeued retries, prefetching.
	Background

	numClasses = 3
)

// classWeights apportions a tenant's dispatches across its active
// classes: interactive gets 16 shares for background's 1. The ratios
// bound both directions — interactive dominates, background progresses.
var classWeights = [numClasses]float64{16, 4, 1}

// String returns the class's wire name.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	case Background:
		return "background"
	}
	return "invalid"
}

// ParseClass parses a wire name; "" means Batch, the default class.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "interactive":
		return Interactive, true
	case "batch", "":
		return Batch, true
	case "background":
		return Background, true
	}
	return Batch, false
}

// Item is one schedulable piece of work.
type Item struct {
	Tenant string
	Class  Class
	// Cost is the expected work (edges); ≤ 0 counts as 1, so cost-less
	// items degrade to plain per-item fairness.
	Cost    int64
	Payload any
}

// Decision is a Pop callback's verdict on a candidate item.
type Decision int

const (
	// Take dispatches the item (pass accounting is charged).
	Take Decision = iota
	// SkipTenant sets the whole tenant aside for this Pop — e.g. the
	// tenant is at its concurrency quota. The item stays queued and no
	// cost is charged.
	SkipTenant
	// Drop removes the item without charging — e.g. its waiter is gone.
	Drop
	// SkipClass sets aside only the candidate's (tenant, class) pair for
	// this Pop — e.g. the background class is paused under host
	// pressure. The tenant's other classes stay eligible; the item stays
	// queued and no cost is charged.
	SkipClass
)

// FairQueue is a weighted fair queue over (tenant, class) using stride
// scheduling: each tenant carries a virtual-time pass that advances by
// cost/weight on every dispatch, and the tenant with the minimum pass
// runs next. A tenant idle while others run re-enters at the current
// virtual time, so idleness banks no credit. Within a tenant the same
// mechanism arbitrates classes under classWeights.
//
// Not safe for concurrent use; callers serialize.
type FairQueue struct {
	tenants map[string]*tenantQ
	heap    []*tenantQ // min-heap by pass
	vtime   float64
	size    int
	weights map[string]float64
}

// NewFairQueue returns an empty queue. Tenants default to weight 1
// until SetWeight.
func NewFairQueue() *FairQueue {
	return &FairQueue{
		tenants: make(map[string]*tenantQ),
		weights: make(map[string]float64),
	}
}

type tenantQ struct {
	name   string
	weight float64
	pass   float64
	idx    int // position in FairQueue.heap, -1 when inactive

	// Per-class stride state: classPass advances by cost/classWeight on
	// dispatch; cvt is the tenant-internal virtual time a newly active
	// class resumes from.
	classPass [numClasses]float64
	cvt       float64
	queues    [numClasses][]Item
	count     int
}

// SetWeight fixes a tenant's fair-share weight (values < 1 clamp to 1).
// Call before or between dispatches; existing pass state is kept.
func (q *FairQueue) SetWeight(tenant string, w float64) {
	if w < 1 {
		w = 1
	}
	q.weights[tenant] = w
	if t, ok := q.tenants[tenant]; ok {
		t.weight = w
	}
}

// Len returns the queued item count.
func (q *FairQueue) Len() int { return q.size }

// LenTenant returns one tenant's queued item count.
func (q *FairQueue) LenTenant(tenant string) int {
	if t, ok := q.tenants[tenant]; ok {
		return t.count
	}
	return 0
}

// LenClass returns one class's queued item count across all tenants.
func (q *FairQueue) LenClass(c Class) int {
	if c >= numClasses {
		return 0
	}
	n := 0
	for _, t := range q.tenants {
		n += len(t.queues[c])
	}
	return n
}

// Push enqueues it. A tenant (or class) that was idle resumes at the
// current virtual time rather than its stale pass, so it cannot cash in
// credit accumulated while absent.
func (q *FairQueue) Push(it Item) {
	if it.Class >= numClasses {
		it.Class = Background
	}
	t, ok := q.tenants[it.Tenant]
	if !ok {
		w := q.weights[it.Tenant]
		if w < 1 {
			w = 1
		}
		t = &tenantQ{name: it.Tenant, weight: w, pass: q.vtime, idx: -1}
		q.tenants[it.Tenant] = t
	}
	if t.count == 0 && t.pass < q.vtime {
		t.pass = q.vtime
	}
	c := it.Class
	if len(t.queues[c]) == 0 && t.classPass[c] < t.cvt {
		t.classPass[c] = t.cvt
	}
	t.queues[c] = append(t.queues[c], it)
	t.count++
	q.size++
	if t.idx < 0 {
		q.heapPush(t)
	}
}

// Pop dispatches the best item: the minimum-pass tenant's
// minimum-classPass head. decide (nil = always Take) may veto: Drop
// discards the candidate, SkipTenant shelves the tenant for this call,
// SkipClass shelves just that tenant's class (a tenant with every
// non-empty class shelved is set aside like SkipTenant). Charging
// happens only on Take.
func (q *FairQueue) Pop(decide func(Item) Decision) (Item, bool) {
	var skipped []*tenantQ
	var masked map[*tenantQ]uint8 // per-call bitmask of shelved classes
	defer func() {
		for _, t := range skipped {
			if t.count > 0 {
				q.heapPush(t)
			}
		}
	}()
	for len(q.heap) > 0 {
		t := q.heap[0]
		for t.count > 0 {
			c, live := t.minClass(masked[t])
			if !live {
				// Every non-empty class is shelved for this call.
				q.heapRemove(t)
				skipped = append(skipped, t)
				break
			}
			it := t.queues[c][0]
			d := Take
			if decide != nil {
				d = decide(it)
			}
			switch d {
			case Drop:
				t.dequeue(c)
				q.size--
				continue
			case SkipClass:
				if masked == nil {
					masked = make(map[*tenantQ]uint8)
				}
				masked[t] |= 1 << c
				continue
			case SkipTenant:
				q.heapRemove(t)
				skipped = append(skipped, t)
			default: // Take
				t.dequeue(c)
				q.size--
				if q.vtime < t.pass {
					q.vtime = t.pass
				}
				cost := float64(it.Cost)
				if cost < 1 {
					cost = 1
				}
				t.classPass[c] += cost / classWeights[c]
				t.cvt = t.minActiveClassPass(c)
				t.pass += cost / t.weight
				if t.count == 0 {
					q.heapRemove(t)
				} else {
					q.heapFix(t)
				}
				return it, true
			}
			break
		}
		if t.count == 0 && t.idx >= 0 {
			q.heapRemove(t)
		}
	}
	return Item{}, false
}

// Items returns a snapshot of every queued item in no particular order
// (drain/debugging only).
func (q *FairQueue) Items() []Item {
	out := make([]Item, 0, q.size)
	for _, t := range q.tenants {
		for c := range t.queues {
			out = append(out, t.queues[c]...)
		}
	}
	return out
}

// Remove deletes the queued item whose payload is identical to payload
// (pointer/interface equality) from the given tenant and class,
// reporting whether it was found. No cost is charged.
func (q *FairQueue) Remove(tenant string, class Class, payload any) bool {
	t, ok := q.tenants[tenant]
	if !ok || class >= numClasses {
		return false
	}
	fifo := t.queues[class]
	for i := range fifo {
		if fifo[i].Payload == payload {
			copy(fifo[i:], fifo[i+1:])
			fifo[len(fifo)-1] = Item{}
			t.queues[class] = fifo[:len(fifo)-1]
			t.count--
			q.size--
			if t.count == 0 && t.idx >= 0 {
				q.heapRemove(t)
			}
			return true
		}
	}
	return false
}

// minClass returns the non-empty class with the lowest classPass,
// ignoring classes in mask; found is false when every non-empty class
// is masked. Callers guarantee t.count > 0.
func (t *tenantQ) minClass(mask uint8) (best Class, found bool) {
	for c := Class(0); c < numClasses; c++ {
		if len(t.queues[c]) == 0 || mask&(1<<c) != 0 {
			continue
		}
		if !found || t.classPass[c] < t.classPass[best] {
			best, found = c, true
		}
	}
	return best, found
}

// minActiveClassPass is the tenant-internal virtual time after a
// dispatch from class served: the smallest classPass among still-active
// classes, falling back to the served class's advanced pass when the
// tenant drained.
func (t *tenantQ) minActiveClassPass(served Class) float64 {
	v := t.classPass[served]
	found := false
	for c := Class(0); c < numClasses; c++ {
		if len(t.queues[c]) == 0 {
			continue
		}
		if !found || t.classPass[c] < v {
			v, found = t.classPass[c], true
		}
	}
	return v
}

// dequeue pops the head of class c's fifo.
func (t *tenantQ) dequeue(c Class) Item {
	fifo := t.queues[c]
	it := fifo[0]
	copy(fifo, fifo[1:])
	fifo[len(fifo)-1] = Item{}
	t.queues[c] = fifo[:len(fifo)-1]
	t.count--
	return it
}

// ------------------------------------------------- pass-ordered heap

func (q *FairQueue) heapLess(i, j int) bool { return q.heap[i].pass < q.heap[j].pass }

func (q *FairQueue) heapSwap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].idx = i
	q.heap[j].idx = j
}

func (q *FairQueue) heapPush(t *tenantQ) {
	t.idx = len(q.heap)
	q.heap = append(q.heap, t)
	q.heapUp(t.idx)
}

func (q *FairQueue) heapRemove(t *tenantQ) {
	i := t.idx
	last := len(q.heap) - 1
	if i != last {
		q.heapSwap(i, last)
	}
	q.heap = q.heap[:last]
	t.idx = -1
	if i < last {
		q.heapDown(i)
		q.heapUp(i)
	}
}

// heapFix restores order after t's pass changed in place.
func (q *FairQueue) heapFix(t *tenantQ) {
	q.heapDown(t.idx)
	q.heapUp(t.idx)
}

func (q *FairQueue) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.heapLess(i, parent) {
			return
		}
		q.heapSwap(i, parent)
		i = parent
	}
}

func (q *FairQueue) heapDown(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.heapLess(l, smallest) {
			smallest = l
		}
		if r < n && q.heapLess(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.heapSwap(i, smallest)
		i = smallest
	}
}
