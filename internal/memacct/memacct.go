// Package memacct provides explicit working-set accounting for the
// space-complexity comparisons of Table 1 and Figures 11–12.
//
// Generators in this repository report the memory their algorithm
// *requires* (duplicate-elimination sets, recursive vectors, shuffle
// buffers) rather than process RSS, because several generators share one
// benchmark process and Go's GC makes RSS a lagging, noisy proxy. Each
// tracked structure charges bytes to an Acct when it grows and releases
// them when freed; the peak is the algorithm's space demand.
//
// The AVS scope generator is the exception to "when it grows": it
// observes a per-scope peak, Observe of the scope's whole working set as
// the scope completes, which raises Peak and never moves Current, so
// for it only Peak is meaningful and Current reads 0.
package memacct

import "sync/atomic"

// Acct tracks current and peak tracked bytes. Methods are safe for
// concurrent use.
type Acct struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Add charges n bytes (n may be negative to release).
func (a *Acct) Add(n int64) { a.raisePeak(a.cur.Add(n)) }

// Observe reports a transient working set of n bytes on top of what is
// charged: Peak rises to Current()+n if that is higher, and Current does
// not move. It is Add(n) followed by Add(−n) without the two writes to
// the shared counter, so a hot loop can report each step's high-water
// mark for the price of two loads.
func (a *Acct) Observe(n int64) { a.raisePeak(a.cur.Load() + n) }

// raisePeak lifts the high-water mark to c if c is higher.
func (a *Acct) raisePeak(c int64) {
	for {
		p := a.peak.Load()
		if c <= p || a.peak.CompareAndSwap(p, c) {
			return
		}
	}
}

// Current returns the bytes currently charged.
func (a *Acct) Current() int64 { return a.cur.Load() }

// Peak returns the high-water mark.
func (a *Acct) Peak() int64 { return a.peak.Load() }

// Reset zeroes both counters.
func (a *Acct) Reset() {
	a.cur.Store(0)
	a.peak.Store(0)
}

// EdgeBytes is the accounting cost of one buffered edge (two int64 IDs).
const EdgeBytes = 16

// VertexBytes is the accounting cost of one buffered vertex ID.
const VertexBytes = 8
