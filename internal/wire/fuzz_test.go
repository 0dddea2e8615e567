package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzDecodeEnvelope throws arbitrary bytes at the envelope decoder. The
// decoder must never panic, and on success the decoded envelope must
// re-encode to a form that decodes identically (the codec is canonical for
// everything but varint widths, so we compare field-wise, not byte-wise).
func FuzzDecodeEnvelope(f *testing.F) {
	// Seeds from the round-trip tests: every message type, empty and
	// non-empty payloads, plus the classic truncation shapes.
	for m := MsgSensorEvent; m < maxMsgType; m++ {
		f.Add(EncodeEnvelope(nil, &Envelope{Type: m, Seq: 77, Session: 1234, Payload: []byte("find poi")}))
	}
	f.Add(EncodeEnvelope(nil, &Envelope{Type: MsgAck, Seq: 0, Session: 0}))
	f.Add([]byte{})
	f.Add([]byte{0})                                                                                // invalid type 0
	f.Add([]byte{200, 1, 2, 0})                                                                     // unknown type
	f.Add([]byte{byte(MsgQuery), 0x80})                                                             // truncated seq varint
	f.Add([]byte{byte(MsgQuery), 1, 2, 100})                                                        // payload length beyond buffer
	f.Add([]byte{byte(MsgQuery), 1, 2, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}) // oversized length

	f.Fuzz(func(t *testing.T, p []byte) {
		env, err := DecodeEnvelope(p)
		if err != nil {
			return
		}
		if !env.Type.Valid() {
			t.Fatalf("decoder accepted invalid type %d", env.Type)
		}
		re := EncodeEnvelope(nil, env)
		got, err := DecodeEnvelope(re)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v", err)
		}
		if got.Type != env.Type || got.Seq != env.Seq || got.Session != env.Session ||
			!bytes.Equal(got.Payload, env.Payload) {
			t.Fatalf("re-encode round trip mismatch: %+v vs %+v", got, env)
		}
	})
}

// FuzzReadFrame throws arbitrary byte streams at the framed reader: header
// truncation, oversized length prefixes, and CRC corruption must all come
// back as errors (or io.EOF at a clean boundary), never as a panic or an
// unbounded allocation, and a valid frame must round-trip.
func FuzzReadFrame(f *testing.F) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		fw := NewFrameWriter(&buf)
		if err := fw.WriteFrame(payload); err != nil {
			f.Fatal(err)
		}
		if err := fw.Flush(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// Seeds: valid frames from the round-trip cases, then corrupted shapes.
	f.Add(frame([]byte("alpha")))
	f.Add(frame([]byte{}))
	f.Add(frame([]byte("gamma-longer-payload")))
	corrupt := frame([]byte("important data"))
	corrupt[len(corrupt)-1] ^= 0xFF // CRC mismatch
	f.Add(corrupt)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // length prefix > MaxFrameSize
	f.Add([]byte{5, 0, 0})                            // truncated header
	short := frame([]byte("cut"))
	f.Add(short[:len(short)-2]) // truncated payload

	f.Fuzz(func(t *testing.T, stream []byte) {
		fr := NewFrameReader(bytes.NewReader(stream))
		for {
			p, err := fr.ReadFrame()
			if err != nil {
				return // io.EOF or a typed decode error: both fine
			}
			// A frame the reader accepted must carry a coherent header:
			// re-frame the payload and check it reads back identically.
			re := frame(append([]byte(nil), p...))
			fr2 := NewFrameReader(bytes.NewReader(re))
			got, err := fr2.ReadFrame()
			if err != nil || !bytes.Equal(got, p) {
				t.Fatalf("accepted frame failed to round trip: %v", err)
			}
		}
	})
}

// fixedPoint is the property every payload decoder's fuzz target checks:
// on hostile bytes decode must not panic, and whatever it accepts must
// re-encode to bytes that decode again to the same encoding — decode →
// encode → decode is a fixed point.
func fixedPoint[T any](t *testing.T, p []byte, decode func([]byte) (T, error), encode func(*Buffer, T)) {
	v, err := decode(p)
	if err != nil {
		return
	}
	var first, second Buffer
	encode(&first, v)
	again, err := decode(first.Bytes())
	if err != nil {
		t.Fatalf("re-encoded %+v fails to decode: %v", v, err)
	}
	encode(&second, again)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("decode → encode is not a fixed point: %x then %x", first.Bytes(), second.Bytes())
	}
}

// FuzzDecodeSubscribe: a subscribe payload comes from any client.
func FuzzDecodeSubscribe(f *testing.F) {
	for _, s := range []Subscribe{{}, {IntervalMS: 33, Budget: 8, Flags: SubFlagDelta}, {IntervalMS: 1<<32 - 1, Budget: 1<<32 - 1}} {
		var b Buffer
		EncodeSubscribeInto(&b, s)
		f.Add(b.Bytes())
	}
	f.Add([]byte{33, 8})                              // pre-v4 layout: no flags
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x10, 0, 0}) // interval past uint32
	f.Fuzz(func(t *testing.T, p []byte) { fixedPoint(t, p, DecodeSubscribe, EncodeSubscribeInto) })
}

// FuzzDecodeFrameAck: a frame ack comes from any delta-streaming client.
func FuzzDecodeFrameAck(f *testing.F) {
	for _, a := range []FrameAck{{}, {AppliedSeq: 1<<64 - 1, WantKeyframe: true}} {
		var b Buffer
		EncodeFrameAckInto(&b, a)
		f.Add(b.Bytes())
	}
	f.Add([]byte{0xFE, 7}) // unknown flag bits
	f.Fuzz(func(t *testing.T, p []byte) { fixedPoint(t, p, DecodeFrameAck, EncodeFrameAckInto) })
}

// FuzzDecodeHello: a hello is the first thing any peer sends.
func FuzzDecodeHello(f *testing.F) {
	for _, h := range []Hello{{Name: "client", Version: ProtoMax}, {ID: 1<<64 - 1, Name: "shard-7", Version: ProtoMin}} {
		var b Buffer
		EncodeHelloInto(&b, h)
		f.Add(b.Bytes())
	}
	f.Add([]byte{0, 2, 'h', 'i'})                     // truncated: no version
	f.Add([]byte{0, 0, 0})                            // version 0
	f.Add([]byte{0, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1}) // name longer than the payload
	f.Fuzz(func(t *testing.T, p []byte) { fixedPoint(t, p, DecodeHello, EncodeHelloInto) })
}

// TestFuzzSeedsAreWellFormed keeps the hand-built corrupt seeds honest:
// the oversized-length seed must actually exceed MaxFrameSize and fail as
// ErrTooLarge without allocating, mirroring TestFrameTooLarge.
func TestFuzzSeedsAreWellFormed(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	if n := binary.LittleEndian.Uint32(hdr[:4]); n <= MaxFrameSize {
		t.Fatalf("oversized seed length %d not past MaxFrameSize", n)
	}
	fr := NewFrameReader(bytes.NewReader(hdr))
	if _, err := fr.ReadFrame(); err == nil || err == io.EOF {
		t.Fatalf("oversized header read err = %v, want typed error", err)
	}
}
