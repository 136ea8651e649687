// Package partition holds the unit every runtime hands work out in: a
// contiguous range of source vertices. The plan that cuts |V| into them
// is core.Plan, from the closed form of Theorem 1's expected degrees;
// community layouts have one range per block.
package partition

// Range is a contiguous vertex range [Lo, Hi) with its expected load.
// A range may be empty (Lo == Hi): a plan of more parts than rows, or of
// a part beside a hub row, has some.
type Range struct {
	Lo, Hi int64
	// Edges is the range's expected edge count, rounded: the cost the
	// schedulers charge for it, not a count of the edges it will hold.
	Edges int64
}
