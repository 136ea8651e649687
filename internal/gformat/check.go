package gformat

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

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

// CheckADJ6 structurally validates an ADJ6 stream without materialising
// it: it reads each record's 10-byte head and skips the 6·n bytes of
// adjacency the head declares, so it allocates nothing per record and a
// corrupt count costs a short read, not memory. Its verdict is that of
// walking the stream with ADJ6Reader.Next: truncation anywhere is an
// error, an empty stream is valid.
func CheckADJ6(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var head [10]byte
	for {
		switch _, err := io.ReadFull(br, head[:]); err {
		case nil:
		case io.EOF: // bare, as ReadFull returns it: the stream ended between records
			return nil
		case io.ErrUnexpectedEOF:
			return fmt.Errorf("gformat: truncated ADJ6 record: %w", err)
		default:
			return err
		}
		n := int(binary.LittleEndian.Uint32(head[6:]))
		if got, err := br.Discard(6 * n); err != nil {
			return fmt.Errorf("gformat: truncated ADJ6 adjacency (%d of %d): %w", got/6, n, err)
		}
	}
}
