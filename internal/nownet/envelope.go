package nownet

import (
	"encoding/binary"
	"fmt"

	"nowover/internal/ids"
)

// Kind classifies an envelope's role in the request/response protocol.
type Kind uint8

// Envelope kinds. Zero is reserved as invalid so a forgotten field can
// never decode as a legal envelope.
const (
	KindOneway   Kind = 1 + iota // fire-and-forget
	KindRequest                  // expects a KindResponse with the same MsgID
	KindResponse                 // correlated to a request by MsgID
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindOneway:
		return "oneway"
	case KindRequest:
		return "request"
	case KindResponse:
		return "response"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Envelope is the wire unit: every message crosses a Transport in this
// shape, encoded by Encode. MsgID correlates a response to its request;
// the (From, MsgID) pair is unique per sender, which is what receivers
// dedupe retransmissions on.
type Envelope struct {
	Kind    Kind
	Type    byte // protocol-defined message type, dispatched to handlers
	From    ids.NodeID
	To      ids.NodeID
	MsgID   uint64
	Payload []byte
}

// Wire layout: magic, kind, type, from(8), to(8), msgid(8), plen(4),
// payload. All integers big-endian.
const (
	envMagic      = 0xE7
	envHeaderSize = 3 + 8 + 8 + 8 + 4
	// MaxPayload bounds a single envelope's payload; a length prefix
	// beyond it is rejected at decode so a hostile frame cannot force a
	// giant allocation.
	MaxPayload = 1 << 20
)

// Encode serializes the envelope, appending to buf (which may be nil) and
// returning the extended slice.
func (e Envelope) Encode(buf []byte) ([]byte, error) {
	if err := e.validate(); err != nil {
		return nil, err
	}
	return e.appendWire(buf), nil
}

// validate reports why the envelope cannot be encoded, if it cannot.
func (e Envelope) validate() error {
	if e.Kind < KindOneway || e.Kind > KindResponse {
		return fmt.Errorf("nownet: encode: invalid kind %d", e.Kind)
	}
	if len(e.Payload) > MaxPayload {
		return fmt.Errorf("nownet: encode: payload %d bytes exceeds max %d", len(e.Payload), MaxPayload)
	}
	return nil
}

// appendWire appends the wire form of an envelope that passed validate.
func (e Envelope) appendWire(buf []byte) []byte {
	buf = append(buf, envMagic, byte(e.Kind), e.Type)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.From))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.To))
	buf = binary.BigEndian.AppendUint64(buf, e.MsgID)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(e.Payload)))
	return append(buf, e.Payload...)
}

// DecodeEnvelope parses one envelope from the front of buf, returning it
// and the number of bytes consumed. The payload is copied out of buf, so
// the caller may reuse the buffer.
func DecodeEnvelope(buf []byte) (Envelope, int, error) {
	if len(buf) < envHeaderSize {
		return Envelope{}, 0, fmt.Errorf("nownet: decode: %d bytes is shorter than the %d-byte header", len(buf), envHeaderSize)
	}
	if buf[0] != envMagic {
		return Envelope{}, 0, fmt.Errorf("nownet: decode: bad magic 0x%02x", buf[0])
	}
	k := Kind(buf[1])
	if k < KindOneway || k > KindResponse {
		return Envelope{}, 0, fmt.Errorf("nownet: decode: invalid kind %d", buf[1])
	}
	plen := binary.BigEndian.Uint32(buf[27:31])
	if plen > MaxPayload {
		return Envelope{}, 0, fmt.Errorf("nownet: decode: payload length %d exceeds max %d", plen, MaxPayload)
	}
	total := envHeaderSize + int(plen)
	if len(buf) < total {
		return Envelope{}, 0, fmt.Errorf("nownet: decode: truncated payload (%d of %d bytes)", len(buf)-envHeaderSize, plen)
	}
	e := Envelope{
		Kind:  k,
		Type:  buf[2],
		From:  ids.NodeID(binary.BigEndian.Uint64(buf[3:11])),
		To:    ids.NodeID(binary.BigEndian.Uint64(buf[11:19])),
		MsgID: binary.BigEndian.Uint64(buf[19:27]),
	}
	if plen > 0 {
		e.Payload = append([]byte(nil), buf[envHeaderSize:total]...)
	}
	return e, total, nil
}
