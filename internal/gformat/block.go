package gformat

import (
	"encoding/binary"
	"io"
	"math/bits"
	"sync"
)

// blockSize is how many encoded bytes a writer gathers before it calls
// the underlying io.Writer.
const blockSize = 1 << 16

// blocks recycles the blockSize buffers of writers and of CheckTSV. A
// runtime opens a writer for every part it draws and checks every part
// it finds: with a fresh buffer each time, these buffers and CheckADJ6's
// readers were about three fifths of what a two-worker, 16-part swarm
// job allocated.
var blocks = sync.Pool{New: func() any { return new([blockSize]byte) }}

func takeBlock() []byte    { return blocks.Get().(*[blockSize]byte)[:] }
func giveBlock(buf []byte) { blocks.Put((*[blockSize]byte)(buf)) }

// block is the one buffer between an encoder and its io.Writer: encoders
// write their bytes in place at buf[n:] and call flush when the next
// item may not fit, so nothing is encoded somewhere else first and copied
// here after. Like bufio.Writer, it is sticky about errors: after the
// underlying writer has failed once it is not called again, and every
// later flush reports that failure. The buffer is taken from blocks at
// the first write and given back by close, so a writer holds none while
// it is idle; one written again after close takes another.
type block struct {
	w       io.Writer
	buf     []byte // blockSize long; nil before the first write and after close
	n       int    // pending bytes, buf[:n]
	flushed int64  // bytes the underlying writer has taken
	err     error
}

func newBlock(w io.Writer) block { return block{w: w} }

// take makes sure the block has its buffer before bytes go into it.
func (b *block) take() {
	if b.buf == nil {
		b.buf = takeBlock()
	}
}

// close flushes and, once nothing is pending, gives the buffer back.
// After a failed flush the pending bytes are never sent, and the buffer
// is left to the collector with them.
func (b *block) close() error {
	err := b.flush()
	if b.buf != nil && b.n == 0 {
		giveBlock(b.buf)
		b.buf = nil
	}
	return err
}

// written is flushed plus pending: every byte encoded so far.
func (b *block) written() int64 { return b.flushed + int64(b.n) }

// flush hands the pending bytes to the underlying writer.
func (b *block) flush() error {
	if b.err != nil {
		return b.err
	}
	if b.n == 0 {
		return nil
	}
	n, err := b.w.Write(b.buf[:b.n])
	if n < b.n && err == nil {
		err = io.ErrShortWrite
	}
	b.flushed += int64(n)
	if err != nil {
		// What was not taken stays counted as pending; it is never sent,
		// so it need not be moved to the front.
		b.n -= n
		b.err = err
		return err
	}
	b.n = 0
	return nil
}

// put48s appends ids as 6-byte little-endian words, flushing as the
// block fills; a list of any length passes through the one block. The
// caller has checked the ids against MaxVertexID.
func (b *block) put48s(ids []int64) error {
	b.take()
	for len(ids) > 0 {
		// An ID is stored as a whole 8-byte word, of which the next ID
		// overwrites the two zero bytes: the last needs room for them.
		k := min(len(ids), (blockSize-2-b.n)/6)
		if k == 0 {
			if err := b.flush(); err != nil {
				return err
			}
			continue
		}
		n := b.n
		for _, v := range ids[:k] {
			binary.LittleEndian.PutUint64(b.buf[n:], uint64(v))
			n += 6
		}
		b.n = n
		ids = ids[k:]
	}
	return nil
}

// digitPairs[i] is the two ASCII digits of i < 100 as they lie in
// memory, tens first: two decimal digits per look-up.
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// eightDigits is u < 10⁸ as eight zero-padded ASCII digits, the first in
// the low byte — the word a little-endian store lays down in reading
// order. Its three divisions do not wait for one another.
func eightDigits(u uint32) uint64 {
	hi, lo := u/1e4, u%1e4
	return uint64(digitPairs[hi/100]) | uint64(digitPairs[hi%100])<<16 |
		uint64(digitPairs[lo/100])<<32 | uint64(digitPairs[lo%100])<<48
}

// asciiZeros is "00000000".
const asciiZeros = 0x3030303030303030

// putShort writes u < 10⁸ at buf[at:] in decimal and returns the position
// after it. It stores a whole 8-byte word, so up to 7 bytes after that
// position are overwritten with zeros: the caller leaves them room and
// writes what follows afterwards. The padding's length is read off the
// word itself — its low bytes that are '0', the last digit never counted
// — and shifted out, so no digit count and no branch on it are needed.
func putShort(buf []byte, at int, u uint32) int {
	w := eightDigits(u)
	pad := bits.TrailingZeros64(w^asciiZeros|1<<56) / 8
	binary.LittleEndian.PutUint64(buf[at:], w>>(pad*8))
	return at + 8 - pad
}

// putUint is putShort for any u, as strconv.AppendUint(…, u, 10) prints
// it: the leading group first, then the full groups of eight digits,
// each store covering the zeros of the one before.
func putUint(buf []byte, at int, u uint64) int {
	if u < 1e8 {
		return putShort(buf, at, uint32(u))
	}
	q := u / 1e8
	low := eightDigits(uint32(u - q*1e8))
	if q >= 1e8 {
		q2 := q / 1e8
		at = putShort(buf, at, uint32(q2))
		binary.LittleEndian.PutUint64(buf[at:], eightDigits(uint32(q-q2*1e8)))
		at += 8
	} else {
		at = putShort(buf, at, uint32(q))
	}
	binary.LittleEndian.PutUint64(buf[at:], low)
	return at + 8
}

// putInt is putUint for a signed value, as strconv.AppendInt prints it.
func putInt(buf []byte, at int, v int64) int {
	if v < 0 {
		buf[at] = '-'
		return putUint(buf, at+1, -uint64(v)) // two's complement: right for math.MinInt64 too
	}
	return putUint(buf, at, uint64(v))
}

// decimalLen is the length of v as putInt writes it.
func decimalLen(v int64) int {
	var scratch [28]byte // sign, 20 digits, putShort's overhang
	return putInt(scratch[:], 0, v)
}
