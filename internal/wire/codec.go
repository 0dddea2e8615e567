// Package wire implements the platform's binary wire format: varint/zigzag
// primitives, length-prefixed frames with CRC32 checksums, and typed message
// envelopes. The message queue, cluster RPC layer, and the arbd-server TCP
// protocol all encode through this package so that a single codec is
// exercised (and benchmarked) everywhere.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoding errors.
var (
	ErrShortBuffer = errors.New("wire: short buffer")
	ErrOverflow    = errors.New("wire: varint overflows 64 bits")
	ErrTooLarge    = errors.New("wire: frame exceeds maximum size")
	ErrChecksum    = errors.New("wire: checksum mismatch")
)

// Buffer is an append-only encoder. The zero value is ready to use.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{b: make([]byte, 0, capacity)}
}

// Bytes returns the encoded bytes. The slice aliases the internal buffer.
func (e *Buffer) Bytes() []byte { return e.b }

// Len returns the number of encoded bytes.
func (e *Buffer) Len() int { return len(e.b) }

// Reset truncates the buffer for reuse.
func (e *Buffer) Reset() { e.b = e.b[:0] }

// Uvarint appends v in LEB128 variable-length encoding.
func (e *Buffer) Uvarint(v uint64) {
	e.b = binary.AppendUvarint(e.b, v)
}

// Varint appends v in zigzag variable-length encoding.
func (e *Buffer) Varint(v int64) {
	e.b = binary.AppendVarint(e.b, v)
}

// Uint64 appends v in fixed 8-byte little-endian encoding.
func (e *Buffer) Uint64(v uint64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, v)
}

// Float64 appends v as its IEEE-754 bit pattern.
func (e *Buffer) Float64(v float64) {
	e.Uint64(math.Float64bits(v))
}

// Byte appends one raw byte (protocol discriminators like sensor kinds).
func (e *Buffer) Byte(v byte) {
	e.b = append(e.b, v)
}

// Bool appends v as a single byte.
func (e *Buffer) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Append appends raw bytes with no length prefix — for staging an opaque,
// already-encoded payload (a forwarded envelope body) in a reusable buffer.
func (e *Buffer) Append(p []byte) {
	e.b = append(e.b, p...)
}

// String appends a length-prefixed UTF-8 string.
func (e *Buffer) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Reader decodes values sequentially from a byte slice.
type Reader struct {
	b   []byte
	off int
}

// NewReader returns a Reader over p. The Reader does not copy p.
func NewReader(p []byte) *Reader { return &Reader{b: p} }

// Remaining returns the number of undecoded bytes.
func (d *Reader) Remaining() int { return len(d.b) - d.off }

// Uvarint decodes a LEB128 unsigned integer.
func (d *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n == 0 {
		return 0, ErrShortBuffer
	}
	if n < 0 {
		return 0, ErrOverflow
	}
	d.off += n
	return v, nil
}

// Varint decodes a zigzag signed integer.
func (d *Reader) Varint() (int64, error) {
	v, n := binary.Varint(d.b[d.off:])
	if n == 0 {
		return 0, ErrShortBuffer
	}
	if n < 0 {
		return 0, ErrOverflow
	}
	d.off += n
	return v, nil
}

// Uint64 decodes a fixed 8-byte little-endian integer.
func (d *Reader) Uint64() (uint64, error) {
	if d.Remaining() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

// Float64 decodes an IEEE-754 double.
func (d *Reader) Float64() (float64, error) {
	bits, err := d.Uint64()
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(bits), nil
}

// Byte decodes one raw byte (protocol discriminators, flag bytes).
func (d *Reader) Byte() (byte, error) {
	if d.Remaining() < 1 {
		return 0, ErrShortBuffer
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

// Bool decodes a single byte as a boolean.
func (d *Reader) Bool() (bool, error) {
	if d.Remaining() < 1 {
		return false, ErrShortBuffer
	}
	v := d.b[d.off] != 0
	d.off++
	return v, nil
}

// Bytes8 decodes a length-prefixed byte string. The returned slice aliases
// the reader's underlying buffer; callers that retain it must copy.
func (d *Reader) Bytes8() ([]byte, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining()) {
		return nil, ErrShortBuffer
	}
	p := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return p, nil
}

// String decodes a length-prefixed UTF-8 string (copied).
func (d *Reader) String() (string, error) {
	p, err := d.Bytes8()
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// Err wraps an error with positional context for diagnostics.
func (d *Reader) Err(err error, what string) error {
	return fmt.Errorf("wire: decoding %s at offset %d: %w", what, d.off, err)
}
