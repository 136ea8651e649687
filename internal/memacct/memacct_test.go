package memacct

import (
	"sync"
	"testing"
)

func TestAddAndPeak(t *testing.T) {
	var a Acct
	a.Add(100)
	a.Add(50)
	a.Add(-120)
	if a.Current() != 30 {
		t.Fatalf("current %d", a.Current())
	}
	if a.Peak() != 150 {
		t.Fatalf("peak %d", a.Peak())
	}
	a.Reset()
	if a.Current() != 0 || a.Peak() != 0 {
		t.Fatal("reset failed")
	}
}

// TestConcurrentAddPeakReset hammers every method from concurrent
// goroutines — chargers, readers, and a resetter — so the race
// detector can vet the CAS peak loops of Add and Observe against
// Reset's two independent stores. The only invariants that survive interleaved resets are
// non-tearing ones: readers never observe torn values, Peak never goes
// negative, and a final quiescent Reset leaves both counters zero.
func TestConcurrentAddPeakReset(t *testing.T) {
	var a Acct
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				a.Add(int64(j%7) * VertexBytes)
				a.Observe(int64(j%5) * EdgeBytes)
				a.Add(-int64(j%7) * VertexBytes)
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			if p := a.Peak(); p < 0 {
				t.Error("negative peak")
				return
			}
			a.Current()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			a.Reset()
		}
	}()
	wg.Wait()

	a.Reset()
	if a.Current() != 0 || a.Peak() != 0 {
		t.Fatalf("quiescent reset left current=%d peak=%d", a.Current(), a.Peak())
	}
	a.Add(EdgeBytes)
	if a.Peak() != EdgeBytes {
		t.Fatalf("peak %d after post-reset charge, want %d", a.Peak(), EdgeBytes)
	}
}

func TestConcurrentPeakIsAtLeastMaxSingle(t *testing.T) {
	var a Acct
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				a.Add(10)
				a.Add(-10)
			}
		}()
	}
	wg.Wait()
	if a.Current() != 0 {
		t.Fatalf("current %d after balanced ops", a.Current())
	}
	if a.Peak() < 10 {
		t.Fatalf("peak %d below single charge", a.Peak())
	}
}

// TestObserveIsAddPair: Observe(n) leaves Current and Peak where
// Add(n) then Add(−n) leaves them, with and without bytes charged.
func TestObserveIsAddPair(t *testing.T) {
	var obs, pair Acct
	for _, step := range []struct{ charge, observe int64 }{
		{0, 100}, {0, 40}, {60, 30}, {0, 120}, {-60, 150}, {0, 0},
	} {
		obs.Add(step.charge)
		pair.Add(step.charge)
		obs.Observe(step.observe)
		pair.Add(step.observe)
		pair.Add(-step.observe)
		if obs.Current() != pair.Current() || obs.Peak() != pair.Peak() {
			t.Fatalf("after %+v: Observe gives current %d peak %d, Add pair %d %d",
				step, obs.Current(), obs.Peak(), pair.Current(), pair.Peak())
		}
	}
}

// BenchmarkScopePeak times one scope's report to the accountant, as the
// AVS scope loop makes it: op=observe is Observe, op=add-pair the two
// Add calls it replaced. The peak is already higher, as it is for all
// but the record scopes of a run.
func BenchmarkScopePeak(b *testing.B) {
	b.Run("op=observe", func(b *testing.B) {
		var a Acct
		a.Observe(1 << 20)
		for i := 0; i < b.N; i++ {
			a.Observe(int64(i & 1023))
		}
	})
	b.Run("op=add-pair", func(b *testing.B) {
		var a Acct
		a.Observe(1 << 20)
		for i := 0; i < b.N; i++ {
			n := int64(i & 1023)
			a.Add(n)
			a.Add(-n)
		}
	})
}
