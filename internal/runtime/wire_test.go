package runtime

import (
	"bytes"
	"testing"
)

// wirePayloads is one value of every payload type, extremes included.
var wirePayloads = []any{
	commitMsg{Tag: 0},
	commitMsg{Tag: ^uint64(0)},
	revealMsg{Tag: 12345, Share: -7},
	revealMsg{Tag: 1, Share: 1<<62 + 3},
	voteMsg{Mask: 0b1011},
	pkValue{Kind: pkBroadcast, Value: 1},
	pkValue{Kind: pkKingSay, Value: -1},
	token{WalkID: 77, Remaining: 1000},
	NewToken(666, 0),
}

func TestPayloadRoundTrip(t *testing.T) {
	for _, p := range wirePayloads {
		wire, err := AppendPayload(nil, p)
		if err != nil {
			t.Fatalf("encode %#v: %v", p, err)
		}
		got, err := DecodePayload(wire[0], wire[1:])
		if err != nil {
			t.Fatalf("decode %#v: %v", p, err)
		}
		// Payloads are comparable by contract (majority-accept relies on ==).
		if got != p {
			t.Errorf("round trip %#v -> %#v", p, got)
		}
	}
}

// TestAppendPayloadAppends: the encoding lands after what dst holds, a
// failed encoding leaves dst as it was, and a warm buffer takes every
// payload without allocating.
func TestAppendPayloadAppends(t *testing.T) {
	prefix := []byte{0xAA, 0xBB}
	for _, p := range wirePayloads {
		alone, err := AppendPayload(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPayload(append([]byte(nil), prefix...), p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], alone) {
			t.Errorf("%#v: appended % x, want % x then % x", p, got, prefix, alone)
		}
	}
	got, err := AppendPayload(prefix, "not a protocol payload")
	if err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("failed encoding returned (% x, %v), want the prefix back and an error", got, err)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		for _, p := range wirePayloads {
			buf, _ = AppendPayload(buf[:0], p)
		}
	}); n != 0 {
		t.Errorf("encoding into a warm buffer allocated %v times per pass", n)
	}
}

func TestPayloadCodecRejects(t *testing.T) {
	if _, err := AppendPayload(nil, "not a protocol payload"); err == nil {
		t.Error("encoded an unknown payload type")
	}
	if _, err := DecodePayload(0, nil); err == nil {
		t.Error("decoded the reserved zero tag")
	}
	if _, err := DecodePayload(99, []byte{1, 2, 3}); err == nil {
		t.Error("decoded an unknown tag")
	}
	// Every tag rejects a short body rather than zero-filling.
	for tag := tagCommit; tag <= tagToken; tag++ {
		if _, err := DecodePayload(tag, []byte{1, 2}); err == nil {
			t.Errorf("tag %d decoded a short body", tag)
		}
	}
	// pkValue kinds are a closed set.
	bad := []byte{250, 0, 0, 0, 0, 0, 0, 0, 1}
	if _, err := DecodePayload(tagPKValue, bad); err == nil {
		t.Error("decoded a pkValue with an unknown kind")
	}
}
