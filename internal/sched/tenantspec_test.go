package sched

import (
	"math"
	"testing"
)

// FuzzParseTenantSpec: no -tenant flag value panics the parser, and a
// spec it accepts names a valid tenant and sets only limits the
// scheduler can honour: no negative weight, quota or queue bound, and
// a finite, non-negative rate and burst.
func FuzzParseTenantSpec(f *testing.F) {
	for _, seed := range []string{
		// docs/SCHED.md's examples and ParseTenantSpec's.
		"alice,weight=3,rate=1e6,burst=2e6,max-active=2,max-queued=8,ttl=30s",
		"team-ml,weight=3,rate=5e8,max-active=4",
		"adhoc,weight=1,max-queued=8,ttl=10s",
		"bob",
		"c,max-queued=none",
		"c,max-queued=0,ttl=0s",
		// Rejected: non-finite values, a key without a value, a bad name.
		"a,rate=NaN",
		"a,burst=Inf",
		"a,weight",
		"has space",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		name, lim, err := ParseTenantSpec(spec)
		if err != nil {
			return
		}
		if !ValidTenant(name) {
			t.Fatalf("%q: accepted invalid tenant name %q", spec, name)
		}
		if lim.Weight < 0 || lim.MaxInFlight < 0 || (lim.MaxQueued < 0 && lim.MaxQueued != NoQueue) {
			t.Fatalf("%q: negative bound in %+v", spec, lim)
		}
		for _, v := range []float64{lim.Rate, lim.Burst} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%q: rate or burst not finite and non-negative in %+v", spec, lim)
			}
		}
	})
}
