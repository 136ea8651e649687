package recvec

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// vecReg matches an xmm or ymm register operand.
var vecReg = regexp.MustCompile(`^[XY][0-9]+$`)

// vexViolations checks Go assembly against the two rules the AVX2 kernel
// lives by: every instruction that names an X or Y register is
// VEX-encoded (its mnemonic starts with V), and in a TEXT block that
// names a Y register every RET comes right after VZEROUPPER. A legacy-SSE
// instruction while upper ymm halves are dirty, or a return to Go code
// with them dirty, costs a state transition on every call: one MOVQ
// BX, X13 in a prototype of the kernel, in place of VMOVQ, took the
// 8-level kernel from 5.7 to 24.1 ns per draw, about 140 ns per call.
func vexViolations(src string) []string {
	var bad []string
	var usesY bool
	var bareRets []int
	endText := func() {
		if usesY {
			for _, line := range bareRets {
				bad = append(bad, fmt.Sprintf("line %d: RET without VZEROUPPER before it", line))
			}
		}
		usesY, bareRets = false, nil
	}
	prev := ""
	for i, line := range strings.Split(src, "\n") {
		if j := strings.Index(line, "//"); j >= 0 {
			line = line[:j]
		}
		fields := strings.FieldsFunc(line, func(r rune) bool {
			return r == ' ' || r == '\t' || r == ',' || r == '(' || r == ')'
		})
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") || strings.HasSuffix(fields[0], ":") {
			continue
		}
		mnemonic := fields[0]
		switch mnemonic {
		case "TEXT":
			endText()
			prev = ""
			continue
		case "RET":
			if prev != "VZEROUPPER" {
				bareRets = append(bareRets, i+1)
			}
		}
		for _, op := range fields[1:] {
			if !vecReg.MatchString(op) {
				continue
			}
			usesY = usesY || op[0] == 'Y'
			if !strings.HasPrefix(mnemonic, "V") {
				bad = append(bad, fmt.Sprintf("line %d: %s names %s but is not VEX-encoded", i+1, mnemonic, op))
			}
		}
		prev = mnemonic
	}
	endText()
	return bad
}

// TestAssemblyIsAllVEX holds this package's assembly to vexViolations'
// rules, and the checker to catching what they forbid.
func TestAssemblyIsAllVEX(t *testing.T) {
	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no assembly found (%v)", err)
	}
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vexViolations(string(src)) {
			t.Errorf("%s %s", name, v)
		}
	}

	const text = "TEXT ·f(SB), NOSPLIT, $0-8\n"
	for src, want := range map[string]int{
		text + "\tVMOVQ BX, X13\n\tVZEROUPPER\n\tRET\n":                                0,
		text + "\tMOVQ BX, X13 // legacy SSE\n\tRET\n":                                 1,
		text + "\tVPXOR Y0, Y0, Y0\n\tVZEROUPPER\n\tRET\n":                             0,
		text + "\tVPXOR Y0, Y0, Y0\n\tRET\n":                                           1,
		text + "\tVPXOR Y0, Y0, Y0\n\tJZ out\n\tVZEROUPPER\n\tRET\nout:\n\tRET\n":      1,
		text + "\tVPXOR Y0, Y0, Y0\n\tMOVUPD (AX), X1\n\tVZEROUPPER\n\tRET\n":          1,
		text + "\tCPUID\n\tRET\n" + text + "\tVMOVUPD (AX), Y1\n\tVZEROUPPER\n\tRET\n": 0,
	} {
		if got := vexViolations(src); len(got) != want {
			t.Errorf("%q: %d violations %v, want %d", src, len(got), got, want)
		}
	}
}
