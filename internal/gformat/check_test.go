package gformat

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestCheckTSVEveryTruncation: a prefix of a valid part is valid exactly
// when it is a whole number of lines — including the cuts inside a
// destination's digits, which leave a line TSVReader still parses.
func TestCheckTSVEveryTruncation(t *testing.T) {
	part := []byte("1\t23\n4\t56\n0\t0\n281474976710655\t9223372036854775807\n70\t8\n")
	for cut := 0; cut <= len(part); cut++ {
		whole := cut == 0 || part[cut-1] == '\n'
		for name, r := range map[string]io.Reader{
			"at once":      bytes.NewReader(part[:cut]),
			"byte by byte": iotest.OneByteReader(bytes.NewReader(part[:cut])),
			"data and EOF": iotest.DataErrReader(bytes.NewReader(part[:cut])),
		} {
			if err := CheckTSV(r); (err == nil) != whole {
				t.Errorf("prefix %q read %s: %v, want valid = %v", part[:cut], name, err, whole)
			}
		}
	}
	// The case that used to pass: torn from "4\t56\n".
	if err := CheckTSV(strings.NewReader("1\t23\n4\t5")); err == nil {
		t.Fatal(`"1\t23\n4\t5" accepted`)
	}
}

// TestCheckTSVAcrossBlocks: lines that straddle the scanner's reads, and
// a cut at every offset around a read boundary.
func TestCheckTSVAcrossBlocks(t *testing.T) {
	var part bytes.Buffer
	w := NewTSVWriter(&part)
	for src := int64(0); part.Len() < 3<<16; src += 977 {
		if err := w.WriteScope(src*104729, []int64{src, src * 31, 1 << 40, 7}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil { // a flush, nothing more
			t.Fatal(err)
		}
	}
	b := part.Bytes()
	if err := CheckTSV(bytes.NewReader(b)); err != nil {
		t.Fatalf("a writer's own output: %v", err)
	}
	for cut := 1<<16 - 64; cut < 1<<16+64; cut++ {
		whole := b[cut-1] == '\n'
		if err := CheckTSV(bytes.NewReader(b[:cut])); (err == nil) != whole {
			t.Errorf("cut at %d: %v, want valid = %v", cut, err, whole)
		}
	}
}

// TestCheckTSVRejects: nothing but what the writer emits for vertex IDs.
func TestCheckTSVRejects(t *testing.T) {
	for name, in := range map[string]string{
		"blank line":            "1\t2\n\n3\t4\n",
		"leading blank":         "\n1\t2\n",
		"sign":                  "1\t-2\n",
		"plus":                  "+1\t2\n",
		"no tab":                "12\n",
		"two tabs":              "1\t2\t3\n",
		"empty source":          "\t2\n",
		"empty destination":     "1\t\n",
		"space":                 "1\t 2\n",
		"carriage return":       "1\t2\r\n",
		"letters":               "1\tx\n",
		"leading zero":          "1\t02\n",
		"leading zero source":   "00\t2\n",
		"above int64":           "1\t9223372036854775808\n",
		"20 digits":             "1\t10000000000000000000\n",
		"digits without end":    strings.Repeat("7", 1<<17),
		"long line, then tab":   strings.Repeat("7", 100) + "\t1\n",
		"garbage without lines": strings.Repeat("x", 1<<17),
		"NUL":                   "1\t2\n\x003\t4\n",
	} {
		if err := CheckTSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	for name, in := range map[string]string{
		"empty":     "",
		"zeros":     "0\t0\n",
		"max int64": "9223372036854775807\t9223372036854775807\n",
		"19 digits": "1000000000000000000\t1\n",
	} {
		if err := CheckTSV(strings.NewReader(in)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	boom := errors.New("disk gone")
	if err := CheckTSV(iotest.ErrReader(boom)); !errors.Is(err, boom) {
		t.Fatalf("read error came back as %v", err)
	}
}

// TestCheckTSVAllocations: one buffer per stream, nothing per line.
func TestCheckTSVAllocations(t *testing.T) {
	var part bytes.Buffer
	w := NewTSVWriter(&part)
	for src := int64(0); src < 20000; src++ {
		w.WriteScope(src, []int64{src + 1, src * 3})
	}
	w.Close()
	r := bytes.NewReader(part.Bytes())
	if n := testing.AllocsPerRun(5, func() {
		r.Reset(part.Bytes())
		if err := CheckTSV(r); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("%v allocations for %d lines, want the one buffer", n, 40000)
	}
}

// TestTSVReaderNextAllocations: reading a line allocates nothing.
func TestTSVReaderNextAllocations(t *testing.T) {
	var part bytes.Buffer
	w := NewTSVWriter(&part)
	for src := int64(0); src < 5000; src++ {
		w.WriteScope(src, []int64{src + 1, src * 3})
	}
	w.Close()
	r := NewTSVReader(&part)
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%v allocations per Next, want 0", n)
	}
}
