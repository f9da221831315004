package nownet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
)

// StreamDecoder reframes envelopes off a byte stream. DecodeEnvelope
// already frames for a stream — every envelope is length-prefixed behind
// a magic byte — so the decoder only has to carry partial frames across
// read boundaries and resynchronize after corruption: bytes that cannot
// start a well-formed frame (wrong magic, illegal kind, oversized length)
// are discarded one at a time, counted in Skipped, until a plausible
// header lines up again. Payload bytes are never scanned for magic — a
// frame is consumed wholesale by its length prefix — so resync only ever
// runs over genuine garbage between frames.
//
// The decoded sequence is a pure function of the underlying byte string:
// chunking (how many bytes each Read returns) affects neither the
// envelopes, nor the skip count, nor the final error. FuzzReframe pins
// that property.
//
// Buffer ownership: the decoder reads straight into the spare capacity of
// one carry buffer, grown to readSize on the first read and only doubled
// when a single frame outgrows it, and consumes frames and resync bytes
// by advancing an offset. The unconsumed tail moves to the front once per
// read, so resync over a garbage run is linear in its length. A returned
// envelope never aliases the buffer: DecodeEnvelope copies its payload
// out, and that copy is the only allocation per envelope once the buffer
// has grown.
type StreamDecoder struct {
	r       io.Reader
	buf     []byte // carry buffer; buf[off:] is not yet consumed
	off     int
	eof     bool
	skipped int64
}

// readSize is the carry buffer's initial capacity: one read's worth.
const readSize = 4096

// NewStreamDecoder wraps a byte stream.
func NewStreamDecoder(r io.Reader) *StreamDecoder { return &StreamDecoder{r: r} }

// Skipped returns the number of garbage bytes discarded during resync so
// far. Transports surface it as a corruption counter.
func (d *StreamDecoder) Skipped() int64 { return d.skipped }

// Next returns the next well-formed envelope. At end of stream it returns
// io.EOF if nothing partial remains buffered (trailing garbage that can
// never start a frame is skipped and still counts as a clean end), and
// io.ErrUnexpectedEOF if the stream ends mid-frame.
func (d *StreamDecoder) Next() (Envelope, error) {
	for {
		// Resync: drop bytes that cannot begin a frame. The magic byte is
		// necessary but not sufficient — a magic inside garbage is moved
		// past one byte at a time once its header proves illegal.
		i := bytes.IndexByte(d.buf[d.off:], envMagic)
		if i < 0 {
			i = len(d.buf) - d.off
		}
		d.skipped += int64(i)
		d.off += i
		if b := d.buf[d.off:]; len(b) >= envHeaderSize {
			k := Kind(b[1])
			plen := binary.BigEndian.Uint32(b[envHeaderSize-4 : envHeaderSize])
			if k < KindOneway || k > KindResponse || plen > MaxPayload {
				d.skipped++
				d.off++
				continue
			}
			if total := envHeaderSize + int(plen); len(b) >= total {
				env, consumed, err := DecodeEnvelope(b[:total])
				if err != nil {
					// The header checks above mirror DecodeEnvelope's, so
					// this cannot happen; resync anyway rather than wedge.
					d.skipped++
					d.off++
					continue
				}
				d.off += consumed
				return env, nil
			}
		}
		// A (possible) frame start with not enough bytes behind it yet.
		if d.eof {
			if d.off == len(d.buf) {
				return Envelope{}, io.EOF
			}
			return Envelope{}, io.ErrUnexpectedEOF
		}
		if err := d.fill(); err != nil {
			return Envelope{}, err
		}
	}
}

// fill compacts the unconsumed tail to the front of the carry buffer and
// reads once into its spare capacity, growing the buffer only when the
// tail fills it. A final short read that returns data alongside EOF keeps
// the data; the EOF is remembered for the next pass.
func (d *StreamDecoder) fill() error {
	d.buf = d.buf[:copy(d.buf, d.buf[d.off:])]
	d.off = 0
	if len(d.buf) == cap(d.buf) {
		d.buf = slices.Grow(d.buf, max(readSize, len(d.buf)))
	}
	n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
	d.buf = d.buf[:len(d.buf)+n]
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) {
		d.eof = true
		return nil
	}
	return err
}
