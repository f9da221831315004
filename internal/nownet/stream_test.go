package nownet

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// chunkReader yields the input in caller-chosen chunk sizes, cycling
// through cuts, to exercise every read-boundary placement.
type chunkReader struct {
	data []byte
	cuts []int
	i    int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.cuts[c.i%len(c.cuts)]
	c.i++
	if n > len(c.data) {
		n = len(c.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// mustEncode concatenates the envelopes' wire forms.
func mustEncode(t *testing.T, envs ...Envelope) []byte {
	t.Helper()
	var wire []byte
	for _, e := range envs {
		var err error
		wire, err = e.Encode(wire)
		if err != nil {
			t.Fatal(err)
		}
	}
	return wire
}

// drain decodes envelopes until the stream ends, returning them with the
// terminal error.
func drain(r io.Reader) ([]Envelope, int64, error) {
	d := NewStreamDecoder(r)
	var envs []Envelope
	for {
		env, err := d.Next()
		if err != nil {
			return envs, d.Skipped(), err
		}
		envs = append(envs, env)
	}
}

func sameEnvelope(a, b Envelope) bool {
	return a.Kind == b.Kind && a.Type == b.Type && a.From == b.From &&
		a.To == b.To && a.MsgID == b.MsgID && bytes.Equal(a.Payload, b.Payload)
}

func TestStreamPartialHeaderAcrossReads(t *testing.T) {
	// One byte per read: every header field arrives split across a read
	// boundary, and the decoder must carry the partial header until it has
	// all of it.
	envs := []Envelope{
		{Kind: KindRequest, Type: 3, From: 1, To: 2, MsgID: 42, Payload: []byte("ping")},
		{Kind: KindResponse, Type: 3, From: 2, To: 1, MsgID: 42, Payload: []byte("pong")},
	}
	wire := mustEncode(t, envs...)
	got, skipped, err := drain(iotest.OneByteReader(bytes.NewReader(wire)))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("terminal err = %v, want io.EOF", err)
	}
	if skipped != 0 {
		t.Errorf("skipped %d bytes of a clean stream", skipped)
	}
	if len(got) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(got), len(envs))
	}
	for i := range envs {
		if !sameEnvelope(got[i], envs[i]) {
			t.Errorf("envelope %d: %+v, want %+v", i, got[i], envs[i])
		}
	}
}

func TestStreamPayloadSplitMidFrame(t *testing.T) {
	// Awkward cut points: mid-magic-run, mid-payload, exactly on a frame
	// boundary. The payload itself contains magic bytes — framing is by
	// length prefix, so they must never trigger a resync.
	payload := bytes.Repeat([]byte{envMagic, 0x00}, 300)
	envs := []Envelope{
		{Kind: KindOneway, Type: 9, From: 7, To: 8, MsgID: 1, Payload: payload},
		{Kind: KindRequest, Type: 1, From: 8, To: 7, MsgID: 2},
	}
	wire := mustEncode(t, envs...)
	for _, cuts := range [][]int{{1}, {2, 3}, {7, 31, 1}, {len(wire)}, {envHeaderSize}, {envHeaderSize - 1, 512}} {
		got, skipped, err := drain(&chunkReader{data: append([]byte(nil), wire...), cuts: cuts})
		if !errors.Is(err, io.EOF) {
			t.Fatalf("cuts %v: terminal err = %v, want io.EOF", cuts, err)
		}
		if skipped != 0 || len(got) != len(envs) {
			t.Fatalf("cuts %v: %d envelopes (want %d), %d skipped (want 0)", cuts, len(got), len(envs), skipped)
		}
		for i := range envs {
			if !sameEnvelope(got[i], envs[i]) {
				t.Errorf("cuts %v: envelope %d diverged", cuts, i)
			}
		}
	}
}

func TestStreamResyncOnGarbage(t *testing.T) {
	env := Envelope{Kind: KindRequest, Type: 3, From: 1, To: 2, MsgID: 9, Payload: []byte("alive")}
	frame := mustEncode(t, env)
	// Garbage before the frame: plain junk without magic, then a lone magic
	// byte whose "header" is illegal (kind 0xFF), then the real frame, then
	// trailing junk without magic (a clean end, not a truncated frame).
	junk := []byte{0x00, 0x01, 0x02, 0xFF, 0x42}
	decoy := append([]byte{envMagic, 0xFF, 0x00}, bytes.Repeat([]byte{0x99}, envHeaderSize)...)
	trailer := []byte{0x10, 0x20, 0x30}
	var stream []byte
	stream = append(stream, junk...)
	stream = append(stream, decoy...)
	stream = append(stream, frame...)
	stream = append(stream, trailer...)

	for name, r := range map[string]io.Reader{
		"one-shot":    bytes.NewReader(stream),
		"byte-a-time": iotest.OneByteReader(bytes.NewReader(append([]byte(nil), stream...))),
	} {
		got, skipped, err := drain(r)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("%s: terminal err = %v, want io.EOF (trailing junk is a clean end)", name, err)
		}
		if len(got) != 1 || !sameEnvelope(got[0], env) {
			t.Fatalf("%s: decoded %d envelopes, want the one real frame", name, len(got))
		}
		want := int64(len(junk) + len(decoy) + len(trailer))
		if skipped != want {
			t.Errorf("%s: skipped %d bytes, want %d", name, skipped, want)
		}
	}
}

func TestStreamMidFrameEOF(t *testing.T) {
	env := Envelope{Kind: KindOneway, Type: 1, From: 1, To: 2, MsgID: 3, Payload: []byte("truncated payload")}
	frame := mustEncode(t, env)
	for _, cut := range []int{1, envHeaderSize - 1, envHeaderSize, len(frame) - 1} {
		_, _, err := drain(bytes.NewReader(frame[:cut]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestStreamReadError(t *testing.T) {
	boom := errors.New("socket reset")
	_, _, err := drain(iotest.ErrReader(boom))
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the reader's error surfaced", err)
	}
}

func TestStreamDecoderPayloadsOutliveBuffer(t *testing.T) {
	// The decoder reads into and compacts one carry buffer; every payload
	// it returned earlier must survive later reads, compactions and the
	// growth a frame larger than the buffer forces, byte for byte.
	var envs []Envelope
	for i := 0; i < 300; i++ {
		payload := bytes.Repeat([]byte{byte(i), envMagic}, 1+i%37)
		if i == 150 {
			payload = bytes.Repeat([]byte{0x5A}, 3*readSize)
		}
		envs = append(envs, Envelope{Kind: KindOneway, Type: byte(i), From: 1, To: 2, MsgID: uint64(i), Payload: payload})
	}
	wire := mustEncode(t, envs...)
	for _, cuts := range [][]int{{len(wire)}, {readSize}, {1000, 7, 3}, {envHeaderSize + 1}} {
		got, skipped, err := drain(&chunkReader{data: append([]byte(nil), wire...), cuts: cuts})
		if !errors.Is(err, io.EOF) || skipped != 0 || len(got) != len(envs) {
			t.Fatalf("cuts %v: %d envelopes, %d skipped, err %v", cuts, len(got), skipped, err)
		}
		for i := range envs {
			if !sameEnvelope(got[i], envs[i]) {
				t.Fatalf("cuts %v: envelope %d changed after later reads", cuts, i)
			}
		}
	}
}

// loopReader serves its data as an endless stream, without allocating.
type loopReader struct {
	data []byte
	pos  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.pos:])
	r.pos = (r.pos + n) % len(r.data)
	return n, nil
}

// loopFrames is one lap of a loopReader stream: seven frames, so laps end
// mid-frame relative to the decoder's reads.
func loopFrames(payload []byte) []byte {
	var wire []byte
	for i := 0; i < 7; i++ {
		wire, _ = Envelope{Kind: KindRequest, Type: 1, From: 1, To: 2, MsgID: uint64(i), Payload: payload}.Encode(wire)
	}
	return wire
}

func TestStreamDecoderAllocatesOnlyPayloads(t *testing.T) {
	// A warmed decoder reframes without allocating; the one allocation per
	// envelope left is the payload copy handed to the caller.
	const k = 64
	for _, tc := range []struct {
		name    string
		payload []byte
		want    float64
	}{
		{"empty", nil, 0},
		{"payload", []byte("phase-king vote"), k},
	} {
		d := NewStreamDecoder(&loopReader{data: loopFrames(tc.payload)})
		reframe := func() {
			for i := 0; i < k; i++ {
				if _, err := d.Next(); err != nil {
					t.Fatal(err)
				}
			}
		}
		reframe() // grows the carry buffer
		if got := testing.AllocsPerRun(100, reframe); got != tc.want {
			t.Errorf("%s: %v allocs per %d envelopes, want %v", tc.name, got, k, tc.want)
		}
		if d.Skipped() != 0 {
			t.Errorf("%s: skipped %d bytes of a clean stream", tc.name, d.Skipped())
		}
	}
}

func TestStreamResyncOverMagicRun(t *testing.T) {
	// A long garbage run made entirely of magic bytes: every byte starts a
	// candidate header whose kind (another magic byte) is illegal, so each
	// is skipped on its own. All of them count, and the frame behind the
	// run still decodes — whatever the chunking.
	const run = 1 << 16
	env := Envelope{Kind: KindResponse, Type: 2, From: 3, To: 4, MsgID: 5, Payload: []byte("after the run")}
	stream := append(bytes.Repeat([]byte{envMagic}, run), mustEncode(t, env)...)
	for name, r := range map[string]io.Reader{
		"one-shot":  bytes.NewReader(stream),
		"odd-cuts":  &chunkReader{data: append([]byte(nil), stream...), cuts: []int{4095, 1, envHeaderSize}},
		"byte-wise": iotest.OneByteReader(bytes.NewReader(stream)),
	} {
		got, skipped, err := drain(r)
		if !errors.Is(err, io.EOF) {
			t.Fatalf("%s: terminal err = %v, want io.EOF", name, err)
		}
		if len(got) != 1 || !sameEnvelope(got[0], env) {
			t.Fatalf("%s: decoded %d envelopes, want the one real frame", name, len(got))
		}
		if skipped != run {
			t.Errorf("%s: skipped %d bytes, want %d", name, skipped, run)
		}
	}
}

// BenchmarkStreamReframe reframes one envelope per op off an endless
// in-memory stream: 0 allocs/op without a payload, 1 (the payload copy)
// with one.
func BenchmarkStreamReframe(b *testing.B) {
	for _, bc := range []struct {
		name    string
		payload []byte
	}{{"empty", nil}, {"payload", []byte("phase-king vote")}} {
		b.Run(bc.name, func(b *testing.B) {
			wire := loopFrames(bc.payload)
			d := NewStreamDecoder(&loopReader{data: wire})
			if _, err := d.Next(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(wire) / 7))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzReframe pins the decoder's two load-bearing properties on arbitrary
// byte soup: it never panics or over-consumes, and the decoded sequence —
// envelopes, skip count and terminal error — is chunking-independent (the
// same bytes fed one byte at a time must reproduce the one-shot decode
// exactly). Every decoded envelope must also survive the codec round trip.
func FuzzReframe(f *testing.F) {
	frame, _ := Envelope{Kind: KindRequest, Type: 3, From: 1, To: 2, MsgID: 42, Payload: []byte("seed")}.Encode(nil)
	f.Add(frame)
	f.Add(append([]byte{0x00, envMagic, 0xFF}, frame...))
	f.Add(frame[:len(frame)-2])
	f.Add(bytes.Repeat([]byte{envMagic}, envHeaderSize+8))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		oneShot, skipOne, errOne := drain(bytes.NewReader(data))
		byteWise, skipByte, errByte := drain(iotest.OneByteReader(bytes.NewReader(data)))
		if len(oneShot) != len(byteWise) || skipOne != skipByte || !errors.Is(errOne, errByte) {
			t.Fatalf("chunking changed the decode: %d/%d envelopes, %d/%d skipped, %v/%v",
				len(oneShot), len(byteWise), skipOne, skipByte, errOne, errByte)
		}
		var consumed int64 = skipOne
		for i, env := range oneShot {
			if !sameEnvelope(env, byteWise[i]) {
				t.Fatalf("envelope %d diverged across chunkings", i)
			}
			re, err := env.Encode(nil)
			if err != nil {
				t.Fatalf("decoded envelope failed to re-encode: %v", err)
			}
			consumed += int64(len(re))
		}
		if consumed > int64(len(data)) {
			t.Fatalf("accounted for %d bytes of a %d-byte stream", consumed, len(data))
		}
	})
}
