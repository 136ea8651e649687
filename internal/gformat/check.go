package gformat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// Check structurally validates a part of format f: CheckTSV, CheckADJ6
// or CheckCSR6.
func Check(r io.ReadSeeker, f Format) error {
	switch f {
	case TSV:
		return CheckTSV(r)
	case ADJ6:
		return CheckADJ6(r)
	case CSR6:
		return CheckCSR6(r)
	}
	return fmt.Errorf("gformat: unsupported format %v", f)
}

// CheckCSR6 structurally validates a CSR6 file without loading it: the
// magic, the header's vertex/edge counts against the file size
// (header + offsets + neighbours must account for every byte), and the
// final offset against the declared edge count. It catches truncation
// and torn writes in O(1) I/O; it does not re-read the adjacency
// payload, so callers needing bit-level certainty should pair it with a
// checksum.
func CheckCSR6(rs io.ReadSeeker) error {
	size, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return err
	}
	head := make([]byte, csrHeaderSize)
	if _, err := io.ReadFull(rs, head); err != nil {
		return fmt.Errorf("gformat: reading CSR6 header: %w", err)
	}
	for i, m := range csrMagic {
		if head[i] != m {
			return errors.New("gformat: not a CSR6 file (bad magic)")
		}
	}
	nv := int64(binary.LittleEndian.Uint64(head[8:]))
	ne := int64(binary.LittleEndian.Uint64(head[16:]))
	if nv < 0 || nv > MaxVertexID+1 || ne < 0 {
		return fmt.Errorf("gformat: CSR6 header declares %d vertices / %d edges", nv, ne)
	}
	want := int64(csrHeaderSize) + 8*(nv+1) + 6*ne
	if size != want {
		return fmt.Errorf("gformat: CSR6 file is %d bytes, header implies %d", size, want)
	}
	// The last offset must close the neighbour section exactly.
	if _, err := rs.Seek(int64(csrHeaderSize)+8*nv, io.SeekStart); err != nil {
		return err
	}
	var ob [8]byte
	if _, err := io.ReadFull(rs, ob[:]); err != nil {
		return fmt.Errorf("gformat: reading CSR6 final offset: %w", err)
	}
	if last := binary.LittleEndian.Uint64(ob[:]); last != uint64(ne) {
		return fmt.Errorf("gformat: CSR6 offset table ends at %d, want %d edges", last, ne)
	}
	return nil
}

// checkReaders recycles CheckADJ6's readers: a runtime checks every
// part it finds, and each reader holds a blockSize buffer.
var checkReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, blockSize) }}

// CheckADJ6 structurally validates an ADJ6 stream without materialising
// it: it reads each record's 10-byte head and skips the 6·n bytes of
// adjacency the head declares, so it allocates nothing per record and a
// corrupt count costs a short read, not memory. Its verdict is that of
// walking the stream with ADJ6Reader.Next: truncation anywhere is an
// error, an empty stream is valid.
func CheckADJ6(r io.Reader) error {
	br := checkReaders.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		checkReaders.Put(br)
	}()
	for {
		// The head is read where it lies in the reader's buffer: a copy
		// into an array would escape through io.ReadFull's interface.
		head, err := br.Peek(10)
		switch {
		case err == nil:
		case err == io.EOF && len(head) == 0: // the stream ended between records
			return nil
		case err == io.EOF:
			return fmt.Errorf("gformat: truncated ADJ6 record: %w", io.ErrUnexpectedEOF)
		default:
			return err
		}
		n := int(binary.LittleEndian.Uint32(head[6:]))
		if got, err := br.Discard(10 + 6*n); err != nil {
			return fmt.Errorf("gformat: truncated ADJ6 adjacency (%d of %d): %w", (got-10)/6, n, err)
		}
	}
}

// maxInt64Digits is math.MaxInt64 in decimal: the largest ID a line can
// carry, and with 19 digits the longest.
const maxInt64Digits = "9223372036854775807"

// CheckTSV structurally validates a TSV stream without parsing it: every
// line must be what TSVWriter emits for non-negative IDs — decimal
// digits, one tab, decimal digits, '\n', each number without sign or
// leading zero and within int64. An empty stream is valid; anything else
// must end in '\n', so a stream cut inside a line is an error even where
// the cut leaves well-formed fields behind (TSVReader, whose scanner
// hands back an unterminated last line, would read "4\t5" out of a torn
// "4\t56\n"). It scans bytes block by block: no string per line, no
// integer conversion, and the one buffer is recycled across calls.
func CheckTSV(r io.Reader) error {
	const margin = 7 // digitRun reads whole words
	buf := takeBlock()
	defer giveBlock(buf)
	have := 0 // buf[:have] is unchecked: the tail of the last read, then this one
	for {
		n, err := r.Read(buf[have : len(buf)-margin])
		have += n
		// Whole lines are checked in place; what follows the last '\n'
		// waits at the front of the buffer for the rest of its line.
		end := bytes.LastIndexByte(buf[:have], '\n') + 1
		for at := 0; at < end; {
			next, ok := checkTSVLine(buf, at)
			if !ok {
				line := buf[at : at+bytes.IndexByte(buf[at:end], '\n')]
				return fmt.Errorf("gformat: malformed TSV line %q", line[:min(len(line), 2*tsvLineMax)])
			}
			at = next
		}
		have = copy(buf, buf[end:have])
		if have > tsvLineMax {
			return fmt.Errorf("gformat: malformed TSV line %q", buf[:min(have, 2*tsvLineMax)])
		}
		switch {
		case err == io.EOF && have > 0:
			return fmt.Errorf("gformat: truncated TSV: last line %q has no newline", buf[:have])
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
	}
}

// checkTSVLine checks the line that starts at buf[at] and returns where
// the next begins. The caller knows of a '\n' at or after at, with
// digitRun's seven bytes of margin after it.
func checkTSVLine(buf []byte, at int) (next int, ok bool) {
	tab := digitRun(buf, at)
	if buf[tab] != '\t' || !plainDecimal(buf[at:tab]) {
		return 0, false
	}
	nl := digitRun(buf, tab+1)
	if buf[nl] != '\n' || !plainDecimal(buf[tab+1:nl]) {
		return 0, false
	}
	return nl + 1, true
}

// digitRun returns the index of the first byte of b, at or after at,
// that is not a decimal digit. There must be one, with at least seven
// more bytes (of anything) after it: the run is measured eight bytes at a
// time, and without a branch on its length — '0' ^ c is under ten for a
// digit, so c is none if that has a high nibble or gets one when six is
// added. A carry out of a byte only reaches bytes after a non-digit.
func digitRun(b []byte, at int) int {
	for {
		x := binary.LittleEndian.Uint64(b[at:]) ^ asciiZeros
		if other := (x | (x + 0x0606060606060606)) & 0xF0F0F0F0F0F0F0F0; other != 0 {
			return at + bits.TrailingZeros64(other)/8
		}
		at += 8
	}
}

// plainDecimal reports whether digits — known to be decimal digits — is
// a number as strconv prints an int64: not empty, no leading zero, no
// more than math.MaxInt64.
func plainDecimal(digits []byte) bool {
	switch n := len(digits); {
	case n == 0 || n > len(maxInt64Digits):
		return false
	case n == 1:
		return true
	case n == len(maxInt64Digits) && string(digits) > maxInt64Digits:
		return false
	}
	return digits[0] != '0'
}
