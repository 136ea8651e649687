// Package gformat implements the three on-disk graph formats of the
// TrillionG system (Section 5):
//
//   - TSV:  one "src<TAB>dst\n" line per edge; verbose but universal.
//   - ADJ6: binary adjacency lists; per source vertex, a 6-byte vertex
//     ID, a 4-byte neighbour count and 6-byte neighbour IDs, in the
//     order scopes were generated.
//   - CSR6: like ADJ6 but globally sorted — vertices appear in ID order
//     with sorted adjacency lists, split into an offsets section and a
//     neighbours section (a compressed sparse row image).
//
// The 6-byte little-endian vertex representation supports |V| ≤ 2^48,
// which covers the paper's largest runs (Scale 38). Writers count the
// bytes and edges they emit so experiment harnesses can report format
// overheads; readers exist for every format so tests can round-trip.
//
// The choice of encoder, reader or checker for a Format is made here
// and nowhere else: NewWriter, Scan and Check, with Format.Streams for
// whether parts concatenate.
package gformat

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// Edge is one directed edge.
type Edge struct {
	Src, Dst int64
}

// MaxVertexID is the largest vertex ID representable in 6 bytes.
const MaxVertexID = int64(1)<<48 - 1

// Format identifies an output format.
type Format int

const (
	// TSV is the text edge-list format.
	TSV Format = iota
	// ADJ6 is the 6-byte binary adjacency-list format.
	ADJ6
	// CSR6 is the 6-byte compressed-sparse-row binary format.
	CSR6
)

// String returns the conventional name of the format.
func (f Format) String() string {
	switch f {
	case TSV:
		return "TSV"
	case ADJ6:
		return "ADJ6"
	case CSR6:
		return "CSR6"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// Streams reports whether f is encoded scope by scope, front to back,
// with no global state: its parts concatenate into one stream and can be
// hashed as they are written. CSR6 back-fills an offset table through a
// seekable writer, and holds one scope per vertex.
func (f Format) Streams() bool { return f == TSV || f == ADJ6 }

// ParseFormat converts a name ("tsv", "adj6", "csr6", case-insensitive
// by convention of lower input) to a Format.
func ParseFormat(s string) (Format, error) {
	switch s {
	case "tsv", "TSV":
		return TSV, nil
	case "adj6", "ADJ6", "adj":
		return ADJ6, nil
	case "csr6", "CSR6", "csr":
		return CSR6, nil
	default:
		return 0, fmt.Errorf("gformat: unknown format %q", s)
	}
}

// Writer is the sink interface generators write scopes into. WriteScope
// emits one source vertex's adjacency list; implementations may require
// the destination slice to remain valid only for the duration of the
// call.
type Writer interface {
	WriteScope(src int64, dsts []int64) error
	// Close flushes buffered data. Writers must be closed before their
	// counters are final.
	Close() error
	// BytesWritten returns the number of payload bytes emitted so far.
	BytesWritten() int64
	// EdgesWritten returns the number of edges emitted so far.
	EdgesWritten() int64
}

// NewWriter returns the encoder of format f over w. CSR6 back-fills its
// header and offset table, so it needs w to be an io.WriteSeeker and a
// vertex count; the streamed formats ignore numVertices.
func NewWriter(w io.Writer, f Format, numVertices int64) (Writer, error) {
	switch f {
	case TSV:
		return NewTSVWriter(w), nil
	case ADJ6:
		return NewADJ6Writer(w), nil
	case CSR6:
		ws, ok := w.(io.WriteSeeker)
		if !ok {
			return nil, errors.New("gformat: CSR6 needs a seekable writer")
		}
		cw, err := NewCSR6Writer(ws, numVertices)
		if err != nil {
			return nil, err
		}
		return cw, nil
	}
	return nil, fmt.Errorf("gformat: unsupported format %v", f)
}

func get48(buf []byte) int64 {
	return int64(buf[0]) | int64(buf[1])<<8 | int64(buf[2])<<16 |
		int64(buf[3])<<24 | int64(buf[4])<<32 | int64(buf[5])<<40
}

func checkID(v int64) error {
	if v < 0 || v > MaxVertexID {
		return fmt.Errorf("gformat: vertex ID %d outside 6-byte range", v)
	}
	return nil
}

// checkIDs is checkID over a list, in one OR per ID: a negative ID or
// one with a bit above the 48th leaves its mark on the union, and only
// then is the offender looked for.
func checkIDs(ids []int64) error {
	var union int64
	for _, v := range ids {
		union |= v
	}
	if uint64(union) <= uint64(MaxVertexID) {
		return nil
	}
	for _, v := range ids {
		if err := checkID(v); err != nil {
			return err
		}
	}
	return nil
}

// TSVWriter writes the text edge-list format.
type TSVWriter struct {
	blk   block
	edges int64
}

// NewTSVWriter returns a TSV writer over w.
func NewTSVWriter(w io.Writer) *TSVWriter {
	return &TSVWriter{blk: newBlock(w)}
}

// tsvLineMax is the longest line there is: two int64s with their signs,
// a tab and a newline.
const tsvLineMax = 20 + 1 + 20 + 1

// WriteScope implements Writer. Every line of a scope starts with the
// same bytes, so the source and its tab are formatted once and copied —
// as one fixed-size store, whatever their length: the destination's
// digits overwrite the excess — and each destination's digits are
// written in place in the block.
func (t *TSVWriter) WriteScope(src int64, dsts []int64) error {
	if len(dsts) == 0 {
		return nil
	}
	var prefix [24]byte
	pl := putInt(prefix[:], 0, src)
	prefix[pl] = '\t'
	pl++
	b := &t.blk
	b.take()
	buf, n := b.buf, b.n
	for _, d := range dsts {
		if n > blockSize-tsvLineMax {
			b.n = n
			if err := b.flush(); err != nil {
				return err
			}
			n = 0
		}
		*(*[len(prefix)]byte)(buf[n:]) = prefix
		n = putInt(buf, n+pl, d)
		buf[n] = '\n'
		n++
	}
	b.n = n
	t.edges += int64(len(dsts))
	return nil
}

// Close implements Writer. A writer written after Close carries on
// where it stopped, as if it had not been closed.
func (t *TSVWriter) Close() error { return t.blk.close() }

// BytesWritten implements Writer.
func (t *TSVWriter) BytesWritten() int64 { return t.blk.written() }

// EdgesWritten implements Writer.
func (t *TSVWriter) EdgesWritten() int64 { return t.edges }

// ADJ6Writer writes the 6-byte binary adjacency-list format. Scopes are
// emitted in arrival order; empty scopes are skipped (a vertex with no
// out-edges simply never appears, as in the paper's per-scope files).
type ADJ6Writer struct {
	blk   block
	edges int64
}

// NewADJ6Writer returns an ADJ6 writer over w.
func NewADJ6Writer(w io.Writer) *ADJ6Writer {
	return &ADJ6Writer{blk: newBlock(w)}
}

// WriteScope implements Writer. A scope with an ID outside the 6-byte
// range is refused whole, before any of it is encoded.
func (a *ADJ6Writer) WriteScope(src int64, dsts []int64) error {
	if len(dsts) == 0 {
		return nil
	}
	if err := checkID(src); err != nil {
		return err
	}
	if err := checkIDs(dsts); err != nil {
		return err
	}
	b := &a.blk
	b.take()
	if b.n > blockSize-10 {
		if err := b.flush(); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(b.buf[b.n:], uint64(src)) // six bytes of ID, then the count
	binary.LittleEndian.PutUint32(b.buf[b.n+6:], uint32(len(dsts)))
	b.n += 10
	if err := b.put48s(dsts); err != nil {
		return err
	}
	a.edges += int64(len(dsts))
	return nil
}

// Close implements Writer. A writer written after Close carries on
// where it stopped, as if it had not been closed.
func (a *ADJ6Writer) Close() error { return a.blk.close() }

// BytesWritten implements Writer.
func (a *ADJ6Writer) BytesWritten() int64 { return a.blk.written() }

// EdgesWritten implements Writer.
func (a *ADJ6Writer) EdgesWritten() int64 { return a.edges }

// CSR6Writer writes the compressed-sparse-row format. It requires scopes
// to arrive in strictly increasing source order (TrillionG's partitioner
// guarantees contiguous, ordered vertex ranges per worker) and sorts
// each adjacency list. Layout:
//
//	header: 8-byte magic "CSR6\x00\x00\x00\x01", 8-byte numVertices,
//	        8-byte numEdges
//	offsets: numVertices+1 little-endian uint64 edge offsets
//	neighbours: numEdges 6-byte destination IDs
//
// Because offsets precede neighbours, the writer buffers per-vertex
// degrees in memory (8 bytes/vertex) and streams neighbours to a
// temporary section via the caller-provided io.WriteSeeker.
type CSR6Writer struct {
	ws          io.WriteSeeker
	numVertices int64
	degrees     []uint32
	edges       int64
	lastSrc     int64
	blk         block // over ws: the neighbours as they arrive, the head on Close
	closed      bool
	scratch     []int64
}

const csrHeaderSize = 24

// csrMagic identifies CSR6 files (version 1).
var csrMagic = [8]byte{'C', 'S', 'R', '6', 0, 0, 0, 1}

// NewCSR6Writer returns a CSR6 writer over ws for a graph of
// numVertices vertices. The neighbour section is written as scopes
// arrive; offsets are backfilled on Close.
func NewCSR6Writer(ws io.WriteSeeker, numVertices int64) (*CSR6Writer, error) {
	if numVertices < 0 || numVertices > MaxVertexID+1 {
		return nil, fmt.Errorf("gformat: vertex count %d out of range", numVertices)
	}
	c := &CSR6Writer{
		ws:          ws,
		numVertices: numVertices,
		degrees:     make([]uint32, numVertices),
		lastSrc:     -1,
		blk:         newBlock(ws),
	}
	// Reserve header + offsets; neighbours stream after them.
	if _, err := ws.Seek(c.headSize(), io.SeekStart); err != nil {
		return nil, err
	}
	return c, nil
}

// headSize is the length of the header and the offset table.
func (c *CSR6Writer) headSize() int64 { return csrHeaderSize + 8*(c.numVertices+1) }

// WriteScope implements Writer. Sources must be strictly increasing.
func (c *CSR6Writer) WriteScope(src int64, dsts []int64) error {
	if src <= c.lastSrc {
		return fmt.Errorf("gformat: CSR6 requires increasing sources, got %d after %d", src, c.lastSrc)
	}
	if src >= c.numVertices {
		return fmt.Errorf("gformat: source %d beyond vertex count %d", src, c.numVertices)
	}
	c.lastSrc = src
	if len(dsts) == 0 {
		return nil
	}
	c.scratch = append(c.scratch[:0], dsts...)
	slices.Sort(c.scratch)
	// Sorted, the two ends speak for every ID between them.
	if err := checkID(c.scratch[0]); err != nil {
		return err
	}
	if err := checkID(c.scratch[len(c.scratch)-1]); err != nil {
		return err
	}
	if err := c.blk.put48s(c.scratch); err != nil {
		return err
	}
	c.degrees[src] = uint32(len(dsts))
	c.edges += int64(len(dsts))
	return nil
}

// Close flushes neighbours and backfills the header and offset table.
func (c *CSR6Writer) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	b := &c.blk
	if err := b.flush(); err != nil {
		return err
	}
	if _, err := c.ws.Seek(0, io.SeekStart); err != nil {
		return err
	}
	b.take()
	copy(b.buf, csrMagic[:])
	binary.LittleEndian.PutUint64(b.buf[8:], uint64(c.numVertices))
	binary.LittleEndian.PutUint64(b.buf[16:], uint64(c.edges))
	b.n = csrHeaderSize
	var off uint64
	for v := int64(0); ; v++ {
		if b.n > blockSize-8 {
			if err := b.flush(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint64(b.buf[b.n:], off)
		b.n += 8
		if v == c.numVertices {
			break
		}
		off += uint64(c.degrees[v])
	}
	return b.close()
}

// BytesWritten implements Writer: the file's size, the reserved header
// and offset table included from the start.
func (c *CSR6Writer) BytesWritten() int64 {
	if c.closed {
		return c.blk.written()
	}
	return c.headSize() + c.blk.written()
}

// EdgesWritten implements Writer.
func (c *CSR6Writer) EdgesWritten() int64 { return c.edges }

// DiscardWriter counts scopes without materializing bytes. It models the
// cost boundary "generation only, no I/O" used by some ablations, and
// charges the byte cost of a chosen format so network/disk models can
// reuse it.
type DiscardWriter struct {
	format Format
	bytes  int64
	edges  int64
}

// NewDiscardWriter returns a DiscardWriter charging format's byte costs.
func NewDiscardWriter(format Format) *DiscardWriter {
	return &DiscardWriter{format: format}
}

// WriteScope implements Writer.
func (d *DiscardWriter) WriteScope(src int64, dsts []int64) error {
	if len(dsts) == 0 {
		return nil
	}
	switch d.format {
	case TSV:
		d.bytes += int64(len(dsts)) * int64(decimalLen(src)+2)
		for _, dst := range dsts {
			d.bytes += int64(decimalLen(dst))
		}
	case ADJ6:
		d.bytes += 10 + 6*int64(len(dsts))
	case CSR6:
		d.bytes += 6 * int64(len(dsts)) // amortized; offsets charged per vertex below
		d.bytes += 8
	}
	d.edges += int64(len(dsts))
	return nil
}

// Close implements Writer.
func (d *DiscardWriter) Close() error { return nil }

// BytesWritten implements Writer.
func (d *DiscardWriter) BytesWritten() int64 { return d.bytes }

// EdgesWritten implements Writer.
func (d *DiscardWriter) EdgesWritten() int64 { return d.edges }

// --- Readers ---

// Scan reads a graph in format f from r and calls fn once per scope, in
// file order, stopping at the first error fn or the reader returns. A
// TSV scope is a run of consecutive lines with the same source (a source
// that comes back after another is a second scope); ADJ6 and CSR6 scopes
// are the file's records, and an empty one is never passed on, so the
// three encodings of one graph scan alike. dsts is valid only during the
// call.
func Scan(r io.Reader, f Format, fn func(src int64, dsts []int64) error) error {
	switch f {
	case TSV:
		return scanTSV(NewTSVReader(r), fn)
	case ADJ6:
		a := NewADJ6Reader(r)
		var buf []int64
		for {
			src, dsts, err := a.next(buf)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			if len(dsts) > 0 {
				if err := fn(src, dsts); err != nil {
					return err
				}
			}
			buf = dsts
		}
	case CSR6:
		g, err := ReadCSR6(r)
		if err != nil {
			return err
		}
		for v := int64(0); v < g.NumVertices; v++ {
			if adj := g.Adj(v); len(adj) > 0 {
				if err := fn(v, adj); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return fmt.Errorf("gformat: unsupported format %v", f)
}

// scanTSV is Scan's TSV case: it gathers each run of one source's edges
// into a scope.
func scanTSV(t *TSVReader, fn func(src int64, dsts []int64) error) error {
	var src int64
	var dsts []int64
	for {
		e, err := t.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if len(dsts) > 0 && e.Src != src {
			if err := fn(src, dsts); err != nil {
				return err
			}
			dsts = dsts[:0]
		}
		src = e.Src
		dsts = append(dsts, e.Dst)
	}
	if len(dsts) == 0 {
		return nil
	}
	return fn(src, dsts)
}

// TSVReader streams edges from the text format.
type TSVReader struct {
	sc  *bufio.Scanner
	err error
}

// NewTSVReader returns a reader over r.
func NewTSVReader(r io.Reader) *TSVReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &TSVReader{sc: sc}
}

// Next returns the next edge, or io.EOF.
func (t *TSVReader) Next() (Edge, error) {
	if t.err != nil {
		return Edge{}, t.err
	}
	if !t.sc.Scan() {
		if err := t.sc.Err(); err != nil {
			t.err = err
		} else {
			t.err = io.EOF
		}
		return Edge{}, t.err
	}
	line := t.sc.Bytes()
	tab := bytes.IndexByte(line, '\t')
	if tab < 0 {
		t.err = fmt.Errorf("gformat: malformed TSV line %q", line)
		return Edge{}, t.err
	}
	src, err := parseInt(line[:tab])
	if err != nil {
		t.err = fmt.Errorf("gformat: bad source in %q: %w", line, err)
		return Edge{}, t.err
	}
	dst, err := parseInt(line[tab+1:])
	if err != nil {
		t.err = fmt.Errorf("gformat: bad destination in %q: %w", line, err)
		return Edge{}, t.err
	}
	return Edge{Src: src, Dst: dst}, nil
}

// parseInt is strconv.ParseInt(string(b), 10, 64) without the string:
// a run of up to 18 digits — every ID a writer emits — is read here,
// and whatever else (signs, 19 digits and more, garbage) goes to strconv
// for its verdict and its error text.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range b {
		d := c - '0'
		if d > 9 {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(d)
	}
	return v, nil
}

// ADJ6Reader streams adjacency lists from the binary format.
type ADJ6Reader struct {
	br *bufio.Reader
}

// NewADJ6Reader returns a reader over r.
func NewADJ6Reader(r io.Reader) *ADJ6Reader {
	return &ADJ6Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next (source, destinations) record, or io.EOF.
func (a *ADJ6Reader) Next() (int64, []int64, error) { return a.next(nil) }

// next is Next reading the destinations into buf's storage, when buf
// is not nil.
func (a *ADJ6Reader) next(buf []int64) (int64, []int64, error) {
	var head [10]byte
	if _, err := io.ReadFull(a.br, head[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("gformat: truncated ADJ6 record: %w", err)
		}
		return 0, nil, err
	}
	src := get48(head[:])
	n := binary.LittleEndian.Uint32(head[6:])
	// Grow the slice as bytes actually arrive instead of trusting the
	// declared count: a corrupt header must produce a clean error, not
	// a multi-gigabyte allocation.
	const chunk = 4096
	dsts := buf[:0]
	if dsts == nil {
		dsts = make([]int64, 0, min64(int64(n), chunk))
	}
	var b [6]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(a.br, b[:]); err != nil {
			return 0, nil, fmt.Errorf("gformat: truncated ADJ6 adjacency (%d of %d): %w", i, n, err)
		}
		dsts = append(dsts, get48(b[:]))
	}
	return src, dsts, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// CSRGraph is a fully loaded CSR6 file.
type CSRGraph struct {
	NumVertices int64
	Offsets     []uint64
	Neighbours  []int64
}

// NumEdges returns the edge count.
func (g *CSRGraph) NumEdges() int64 { return int64(len(g.Neighbours)) }

// Degree returns the out-degree of v.
func (g *CSRGraph) Degree(v int64) int64 {
	return int64(g.Offsets[v+1] - g.Offsets[v])
}

// Adj returns the (sorted) adjacency list of v, aliasing internal
// storage.
func (g *CSRGraph) Adj(v int64) []int64 {
	return g.Neighbours[g.Offsets[v]:g.Offsets[v+1]]
}

// ReadCSR6 loads a CSR6 file produced by CSR6Writer.
func ReadCSR6(r io.Reader) (*CSRGraph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, csrHeaderSize)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("gformat: reading CSR6 header: %w", err)
	}
	for i, m := range csrMagic {
		if head[i] != m {
			return nil, errors.New("gformat: not a CSR6 file (bad magic)")
		}
	}
	nv := int64(binary.LittleEndian.Uint64(head[8:]))
	ne := int64(binary.LittleEndian.Uint64(head[16:]))
	if nv < 0 || nv > MaxVertexID+1 || ne < 0 {
		return nil, fmt.Errorf("gformat: CSR6 header declares %d vertices / %d edges", nv, ne)
	}
	g := &CSRGraph{NumVertices: nv}
	// Incremental reads: corrupt headers must error, not allocate the
	// declared (possibly enormous) sizes up front.
	g.Offsets = make([]uint64, 0, min64(nv+1, 1<<16))
	// Every offset is checked as it arrives — from 0, never decreasing,
	// never past the edge count — so that Adj cannot slice out of range.
	var ob [8]byte
	var prev uint64
	for i := int64(0); i <= nv; i++ {
		if _, err := io.ReadFull(br, ob[:]); err != nil {
			return nil, fmt.Errorf("gformat: reading CSR6 offsets (%d of %d): %w", i, nv+1, err)
		}
		off := binary.LittleEndian.Uint64(ob[:])
		if off < prev || off > uint64(ne) || (i == 0 && off != 0) {
			return nil, fmt.Errorf("gformat: corrupt CSR6 offset table: entry %d is %d after %d, with %d edges", i, off, prev, ne)
		}
		prev = off
		g.Offsets = append(g.Offsets, off)
	}
	if g.Offsets[nv] != uint64(ne) {
		return nil, fmt.Errorf("gformat: CSR6 offset table ends at %d, want %d edges", g.Offsets[nv], ne)
	}
	g.Neighbours = make([]int64, 0, min64(ne, 1<<16))
	var b [6]byte
	for i := int64(0); i < ne; i++ {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return nil, fmt.Errorf("gformat: reading CSR6 neighbours (%d of %d): %w", i, ne, err)
		}
		g.Neighbours = append(g.Neighbours, get48(b[:]))
	}
	return g, nil
}
