package main

import (
	"flag"
	"os"
	"testing"

	"repro/cmd/internal/cliflags"
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

// TestFlagSurface: the command's flags — names, types, defaults — are
// the ones testdata/flags.golden pins; none added, dropped or
// re-defaulted.
func TestFlagSurface(t *testing.T) {
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := cliflags.Surface(flag.CommandLine); got != string(want) {
		t.Fatalf("flag surface\n got:\n%s\nwant:\n%s", got, want)
	}
}
