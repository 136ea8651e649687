package main

import (
	"testing"

	"repro/internal/skg"
)

// TestParseSeed checks the -seed forms this command accepts and rejects;
// the master and masterless workers parse the flag with skg.ParseSeed.
func TestParseSeed(t *testing.T) {
	s, err := skg.ParseSeed("0.57,0.19,0.19,0.05")
	if err != nil {
		t.Fatal(err)
	}
	if s.A != 0.57 || s.D != 0.05 {
		t.Fatalf("seed %+v", s)
	}
	for _, bad := range []string{"", "1,2,3", "x,y,z,w", "0.5,0.5,0.5,0.5"} {
		if _, err := skg.ParseSeed(bad); err == nil {
			t.Fatalf("ParseSeed(%q) accepted", bad)
		}
	}
}
