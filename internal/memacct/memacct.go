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
// charges a scope's whole working set in one step as the scope
// completes and releases it at once, so for it only Peak is meaningful
// and Current reads 0 between charges.
package memacct

import "sync/atomic"

// Acct tracks current and peak tracked bytes. Methods are safe for
// concurrent use.
type Acct struct {
	cur  atomic.Int64
	peak atomic.Int64
}

// Add charges n bytes (n may be negative to release).
func (a *Acct) Add(n int64) {
	c := a.cur.Add(n)
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
