package runtime

import (
	"encoding/binary"
	"fmt"
)

// Wire codec for the protocol payloads the lockstep engine passes as Go
// values. The nownet transport carries payloads as bytes, so every payload
// type gets a tag and a fixed big-endian layout; encoding then decoding
// reproduces the value exactly (payloads are comparable, so the round-trip
// is testable with ==). The codec is deliberately closed: an unknown tag
// or a short body is an error, never a zero value, because a Byzantine
// peer owns every byte of an incoming frame.

// Payload tags. Tag 0 is reserved as invalid.
const (
	tagCommit byte = 1 + iota
	tagReveal
	tagVote
	tagPKValue
	tagToken
)

// AppendPayload appends a protocol payload's wire form, its tag byte then
// its body, to dst and returns the extended slice; on error dst comes back
// unchanged. Encoding into a reused buffer allocates nothing.
func AppendPayload(dst []byte, p any) ([]byte, error) {
	switch v := p.(type) {
	case commitMsg:
		return binary.BigEndian.AppendUint64(append(dst, tagCommit), v.Tag), nil
	case revealMsg:
		dst = binary.BigEndian.AppendUint64(append(dst, tagReveal), v.Tag)
		return binary.BigEndian.AppendUint64(dst, uint64(v.Share)), nil
	case voteMsg:
		return binary.BigEndian.AppendUint64(append(dst, tagVote), v.Mask), nil
	case pkValue:
		return binary.BigEndian.AppendUint64(append(dst, tagPKValue, byte(v.Kind)), uint64(v.Value)), nil
	case token:
		dst = binary.BigEndian.AppendUint64(append(dst, tagToken), v.WalkID)
		return binary.BigEndian.AppendUint64(dst, uint64(v.Remaining)), nil
	}
	return dst, fmt.Errorf("runtime: no wire encoding for payload type %T", p)
}

// DecodePayload reverses AppendPayload: tag is the first byte it wrote
// and body the rest.
func DecodePayload(tag byte, body []byte) (any, error) {
	switch tag {
	case tagCommit:
		if len(body) != 8 {
			return nil, fmt.Errorf("runtime: commit body has %d bytes, want 8", len(body))
		}
		return commitMsg{Tag: binary.BigEndian.Uint64(body)}, nil
	case tagReveal:
		if len(body) != 16 {
			return nil, fmt.Errorf("runtime: reveal body has %d bytes, want 16", len(body))
		}
		return revealMsg{
			Tag:   binary.BigEndian.Uint64(body),
			Share: int64(binary.BigEndian.Uint64(body[8:])),
		}, nil
	case tagVote:
		if len(body) != 8 {
			return nil, fmt.Errorf("runtime: vote body has %d bytes, want 8", len(body))
		}
		return voteMsg{Mask: binary.BigEndian.Uint64(body)}, nil
	case tagPKValue:
		if len(body) != 9 {
			return nil, fmt.Errorf("runtime: pkValue body has %d bytes, want 9", len(body))
		}
		k := pkKind(body[0])
		if k != pkBroadcast && k != pkKingSay {
			return nil, fmt.Errorf("runtime: unknown pkValue kind %d", body[0])
		}
		return pkValue{Kind: k, Value: int64(binary.BigEndian.Uint64(body[1:]))}, nil
	case tagToken:
		if len(body) != 16 {
			return nil, fmt.Errorf("runtime: token body has %d bytes, want 16", len(body))
		}
		return token{
			WalkID:    binary.BigEndian.Uint64(body),
			Remaining: int64(binary.BigEndian.Uint64(body[8:])),
		}, nil
	}
	return nil, fmt.Errorf("runtime: unknown payload tag %d", tag)
}

// NewToken builds a relay walk token; the nownet port and the demo driver
// originate tokens through this constructor since the type is unexported.
func NewToken(walkID uint64, remaining int64) any {
	return token{WalkID: walkID, Remaining: remaining}
}
