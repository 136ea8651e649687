package main

import (
	"flag"
	"os"
	"testing"

	"repro/cmd/internal/cliflags"
	"repro/internal/skg"
)

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

// TestParseSeed checks the -seed forms this command accepts and rejects;
// main parses the flag with skg.ParseSeed.
func TestParseSeed(t *testing.T) {
	s, err := skg.ParseSeed("0.57,0.19,0.19,0.05")
	if err != nil {
		t.Fatal(err)
	}
	if s.A != 0.57 || s.B != 0.19 || s.C != 0.19 || s.D != 0.05 {
		t.Fatalf("seed %+v", s)
	}
	if _, err := skg.ParseSeed(" 0.25 , 0.25 ,0.25, 0.25 "); err != nil {
		t.Fatalf("whitespace not tolerated: %v", err)
	}
	for _, bad := range []string{"", "1,2,3", "a,b,c,d", "0.5,0.5,0.5,0.5", "0.9,0.05,0.04,0.02,0"} {
		if _, err := skg.ParseSeed(bad); err == nil {
			t.Fatalf("ParseSeed(%q) accepted", bad)
		}
	}
}
