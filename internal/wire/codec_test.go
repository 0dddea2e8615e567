package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	var b Buffer
	b.Uvarint(300)
	b.Varint(-42)
	b.Uint64(1 << 60)
	b.Float64(3.14159)
	b.Bool(true)
	b.Bool(false)
	b.String("héllo")
	b.String("\x01\x02\x03") // the length-prefixed form Reader.Bytes8 reads

	r := NewReader(b.Bytes())
	if v, err := r.Uvarint(); err != nil || v != 300 {
		t.Fatalf("Uvarint = %d, %v", v, err)
	}
	if v, err := r.Varint(); err != nil || v != -42 {
		t.Fatalf("Varint = %d, %v", v, err)
	}
	if v, err := r.Uint64(); err != nil || v != 1<<60 {
		t.Fatalf("Uint64 = %d, %v", v, err)
	}
	if v, err := r.Float64(); err != nil || v != 3.14159 {
		t.Fatalf("Float64 = %v, %v", v, err)
	}
	if v, err := r.Bool(); err != nil || !v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := r.Bool(); err != nil || v {
		t.Fatalf("Bool = %v, %v", v, err)
	}
	if v, err := r.String(); err != nil || v != "héllo" {
		t.Fatalf("String = %q, %v", v, err)
	}
	if v, err := r.Bytes8(); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Bytes8 = %v, %v", v, err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestVarintPropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(u uint64, i int64, f float64, s string) bool {
		var b Buffer
		b.Uvarint(u)
		b.Varint(i)
		b.Float64(f)
		b.String(s)
		r := NewReader(b.Bytes())
		gu, err1 := r.Uvarint()
		gi, err2 := r.Varint()
		gf, err3 := r.Float64()
		gs, err4 := r.String()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		fOK := gf == f || (math.IsNaN(f) && math.IsNaN(gf))
		return gu == u && gi == i && fOK && gs == s
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{0x80}) // incomplete varint
	if _, err := r.Uvarint(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
	r = NewReader([]byte{1, 2})
	if _, err := r.Uint64(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Uint64 on short buf err = %v", err)
	}
	r = NewReader(nil)
	if _, err := r.Bool(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("Bool on empty err = %v", err)
	}
}

func TestBytes8LengthBeyondBuffer(t *testing.T) {
	var b Buffer
	b.Uvarint(100) // claims 100 bytes follow, but none do
	r := NewReader(b.Bytes())
	if _, err := r.Bytes8(); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
}

func TestBufferReset(t *testing.T) {
	b := NewBuffer(16)
	b.String("abc")
	if b.Len() == 0 {
		t.Fatal("Len = 0 after write")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len = %d after Reset", b.Len())
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := &Envelope{Type: MsgQuery, Seq: 77, Session: 1234, Payload: []byte("find poi")}
	p := EncodeEnvelope(nil, env)
	got, err := DecodeEnvelope(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != env.Type || got.Seq != env.Seq || got.Session != env.Session ||
		!bytes.Equal(got.Payload, env.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, env)
	}
}

func TestEnvelopeInvalidType(t *testing.T) {
	if _, err := DecodeEnvelope([]byte{0, 1, 2, 0}); err == nil {
		t.Fatal("decoding type 0 succeeded")
	}
	if _, err := DecodeEnvelope([]byte{200, 1, 2, 0}); err == nil {
		t.Fatal("decoding type 200 succeeded")
	}
	if _, err := DecodeEnvelope(nil); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("empty decode err = %v", err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for m := MsgSensorEvent; m < maxMsgType; m++ {
		if !m.Valid() {
			t.Errorf("type %d should be valid", m)
		}
		if s := m.String(); s == "" || strings.HasPrefix(s, "msgtype") {
			t.Errorf("type %d has no name", m)
		}
	}
	if MsgType(0).Valid() {
		t.Error("zero type is valid")
	}
	if maxMsgType.Valid() {
		t.Error("sentinel type is valid")
	}
	if MsgType(maxMsgType + 1).Valid() {
		t.Error("type past the sentinel is valid")
	}
	if MsgType(99).String() != "msgtype(99)" {
		t.Error("unknown type String format")
	}
}

// TestMsgTypeStringExhaustive is the guard the wirepin analyzer leans on:
// adding a MsgType without a String() case (the fallback form leaks
// through) or without its row in PROTOCOL.md's message table fails here,
// not in a code review.
func TestMsgTypeStringExhaustive(t *testing.T) {
	proto, err := os.ReadFile(filepath.Join("..", "..", "PROTOCOL.md"))
	if err != nil {
		t.Fatalf("reading PROTOCOL.md: %v", err)
	}
	doc := string(proto)
	for m := MsgSensorEvent; m < maxMsgType; m++ {
		name := m.String()
		if strings.HasPrefix(name, "msgtype(") {
			t.Errorf("MsgType %d has no String() case; the switch must be exhaustive", uint8(m))
			continue
		}
		row := fmt.Sprintf("| %-5d | `%s`", uint8(m), name)
		loose := fmt.Sprintf("`%s`", name)
		if !strings.Contains(doc, row) && !strings.Contains(doc, loose) {
			t.Errorf("MsgType %s (= %d) has no PROTOCOL.md row", name, uint8(m))
		}
	}
}

// TestProtoVersionsPinned pins the negotiated protocol versions the same
// way the message types are pinned: these numbers are spoken on the wire
// by every peer, so they must never move, and ProtoMin/ProtoMax must
// bracket exactly the versions this build implements.
func TestProtoVersionsPinned(t *testing.T) {
	pins := []struct {
		got  uint32
		want uint32
		name string
	}{
		{ProtoV1, 1, "ProtoV1"},
		{ProtoV2, 2, "ProtoV2"},
		{ProtoV3, 3, "ProtoV3"},
		{ProtoV4, 4, "ProtoV4"},
		{ProtoMin, 3, "ProtoMin"},
		{ProtoMax, 4, "ProtoMax"},
	}
	for _, p := range pins {
		if p.got != p.want {
			t.Errorf("%s = %d, want %d — protocol versions must not move", p.name, p.got, p.want)
		}
	}
}

// TestMsgTypeValuesPinned pins every message type's wire value and name:
// the values are the protocol (see PROTOCOL.md), so an enum insertion or
// reorder must break this test, not remote peers.
func TestMsgTypeValuesPinned(t *testing.T) {
	pinned := []struct {
		typ  MsgType
		val  uint8
		name string
	}{
		{MsgSensorEvent, 1, "sensor_event"},
		{MsgFrameRequest, 2, "frame_request"},
		{MsgAnnotations, 3, "annotations"},
		{MsgQuery, 4, "query"},
		{MsgQueryResult, 5, "query_result"},
		{MsgControl, 6, "control"},
		{MsgAck, 7, "ack"},
		{MsgError, 8, "error"},
		{MsgLoad, 9, "load"},
		{MsgHello, 10, "hello"},
		{MsgSubscribe, 11, "subscribe"},
		{MsgUnsubscribe, 12, "unsubscribe"},
		{MsgFramePush, 13, "frame_push"},
		{MsgJoinShard, 14, "join_shard"},
		{MsgLeaveShard, 15, "leave_shard"},
		{MsgMembership, 16, "membership"},
		{MsgMigrateSession, 17, "migrate_session"},
		{MsgFrameDelta, 18, "frame_delta"},
	}
	for _, p := range pinned {
		if uint8(p.typ) != p.val {
			t.Errorf("%s = %d, want %d — wire values must not move", p.name, uint8(p.typ), p.val)
		}
		if p.typ.String() != p.name {
			t.Errorf("type %d name = %q, want %q", p.val, p.typ.String(), p.name)
		}
	}
	if int(maxMsgType) != len(pinned)+1 {
		t.Errorf("maxMsgType = %d, want %d — new types must be pinned here and documented in PROTOCOL.md",
			maxMsgType, len(pinned)+1)
	}
}

// TestLoadAndHelloEnvelopesRoundTrip runs the new backend message types
// through the same framed encode/decode path every other envelope uses.
func TestLoadAndHelloEnvelopesRoundTrip(t *testing.T) {
	for _, typ := range []MsgType{MsgLoad, MsgHello} {
		env := &Envelope{Type: typ, Seq: 3, Session: 42, Payload: []byte{1, 2, 3}}
		got, err := DecodeEnvelope(EncodeEnvelope(nil, env))
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if got.Type != typ || got.Seq != 3 || got.Session != 42 || !bytes.Equal(got.Payload, env.Payload) {
			t.Fatalf("%v round trip mismatch: %+v", typ, got)
		}
	}
}

// TestHelloRoundTrip checks the hello payload codec, including the empty
// name a router announces with and the version field.
func TestHelloRoundTrip(t *testing.T) {
	for _, h := range []Hello{
		{ID: 0, Name: "router", Version: ProtoV1},
		{ID: 7, Name: "shard-7", Version: ProtoV2},
		{ID: 1<<64 - 1, Name: "", Version: ProtoV2},
	} {
		var b Buffer
		EncodeHelloInto(&b, h)
		got, err := DecodeHello(b.Bytes())
		if err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if got != h {
			t.Fatalf("hello round trip: got %+v, want %+v", got, h)
		}
	}
	if _, err := DecodeHello([]byte{0x80}); err == nil {
		t.Fatal("truncated hello decoded")
	}
	if _, err := DecodeHello([]byte{1, 5, 'a'}); err == nil {
		t.Fatal("hello with short name decoded")
	}
}

// TestHelloVersionRequired pins the rules around the version field: it is
// mandatory (the pre-versioning id+name layout is a truncated hello, not a
// down-level peer), a zero version never goes on the wire, and an explicit
// version 0 is rejected rather than guessed at.
func TestHelloVersionRequired(t *testing.T) {
	var short Buffer
	short.Uvarint(3)
	short.String("shard-3")
	if h, err := DecodeHello(short.Bytes()); err == nil {
		t.Fatalf("hello without a version decoded as %+v", h)
	}
	// A zero Version encodes as the floor.
	var b Buffer
	EncodeHelloInto(&b, Hello{ID: 1, Name: "x"})
	if h, err := DecodeHello(b.Bytes()); err != nil || h.Version != ProtoMin {
		t.Fatalf("zero-version hello decoded as %+v, %v", h, err)
	}
	// Explicit version 0 on the wire is invalid.
	var zero Buffer
	zero.Uvarint(1)
	zero.String("x")
	zero.Uvarint(0)
	if _, err := DecodeHello(zero.Bytes()); err == nil {
		t.Fatal("hello with explicit version 0 decoded")
	}
}

// TestNegotiate covers the version negotiation table: both sides settle on
// the lower announced version, and the typed VersionError fails closed when
// that is below what the caller needs or below the ProtoMin floor.
func TestNegotiate(t *testing.T) {
	cases := []struct {
		local, remote, need uint32
		want                uint32
		fail                bool
		wantNeed            uint32
	}{
		{ProtoV4, ProtoV4, ProtoMin, ProtoV4, false, 0},
		{ProtoV4, ProtoV3, ProtoMin, ProtoV3, false, 0},
		{ProtoV3, ProtoV4, ProtoMin, ProtoV3, false, 0},
		{ProtoV4, ProtoV4 + 5, ProtoV4, ProtoV4, false, 0}, // newer peer: we cap at ours
		{ProtoV4, ProtoV3, ProtoV4, 0, true, ProtoV4},      // delta-only caller, v3 peer
		{ProtoV3, ProtoV4, ProtoV4, 0, true, ProtoV4},
		{ProtoV4, ProtoV2, ProtoV1, 0, true, ProtoMin}, // below the floor always fails
		{ProtoV4, ProtoV1, ProtoMin, 0, true, ProtoMin},
		{ProtoV4, 0, ProtoMin, 0, true, ProtoMin},
	}
	for _, c := range cases {
		got, err := Negotiate(c.local, c.remote, c.need)
		if c.fail {
			if err == nil {
				t.Errorf("Negotiate(%d,%d,%d) = %d, want failure", c.local, c.remote, c.need, got)
				continue
			}
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Errorf("Negotiate(%d,%d,%d) error %v is not a *VersionError", c.local, c.remote, c.need, err)
			} else if ve.Local != c.local || ve.Remote != c.remote || ve.Need != c.wantNeed {
				t.Errorf("VersionError fields = %+v, want {%d %d %d}", ve, c.local, c.remote, c.wantNeed)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("Negotiate(%d,%d,%d) = %d, %v, want %d", c.local, c.remote, c.need, got, err, c.want)
		}
	}
}

// TestSubscribeRoundTrip checks the subscription payload codec.
func TestSubscribeRoundTrip(t *testing.T) {
	for _, s := range []Subscribe{
		{},
		{IntervalMS: 33, Budget: 8},
		{IntervalMS: 1<<32 - 1, Budget: 1<<32 - 1},
	} {
		var b Buffer
		EncodeSubscribeInto(&b, s)
		got, err := DecodeSubscribe(b.Bytes())
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if got != s {
			t.Fatalf("subscribe round trip: got %+v, want %+v", got, s)
		}
	}
	if _, err := DecodeSubscribe([]byte{0x80}); err == nil {
		t.Fatal("truncated subscribe decoded")
	}
	if _, err := DecodeSubscribe([]byte{33}); err == nil {
		t.Fatal("subscribe missing budget decoded")
	}
	// A value wider than uint32 must be rejected, not silently truncated.
	var wide Buffer
	wide.Uvarint(1 << 40)
	wide.Uvarint(1)
	if _, err := DecodeSubscribe(wide.Bytes()); err == nil {
		t.Fatal("64-bit interval decoded into uint32")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	payloads := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-payload")}
	for _, p := range payloads {
		if err := fw.WriteFrame(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	for i, want := range payloads {
		got, err := fr.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
	if _, err := fr.ReadFrame(); err != io.EOF {
		t.Fatalf("after last frame err = %v, want EOF", err)
	}
}

func TestFrameChecksumDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	if err := fw.WriteFrame([]byte("important data")); err != nil {
		t.Fatal(err)
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xFF // flip a payload byte
	fr := NewFrameReader(bytes.NewReader(raw))
	if _, err := fr.ReadFrame(); !errors.Is(err, ErrChecksum) {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	fw := NewFrameWriter(io.Discard)
	if err := fw.WriteFrame(make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	// A corrupt header claiming a huge length must not allocate.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	fr := NewFrameReader(bytes.NewReader(hdr))
	if _, err := fr.ReadFrame(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestWriteReadEnvelopeOverFrames(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	for i := uint64(1); i <= 5; i++ {
		env := &Envelope{Type: MsgAck, Seq: i, Session: 9, Payload: []byte{byte(i)}}
		if err := fw.WriteEnvelope(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(&buf)
	for i := uint64(1); i <= 5; i++ {
		env, err := fr.ReadEnvelope()
		if err != nil {
			t.Fatal(err)
		}
		if env.Seq != i || env.Payload[0] != byte(i) {
			t.Fatalf("envelope %d mismatch: %+v", i, env)
		}
	}
}

// TestEnvelopeBatchMatchesFrameWriter pins the batch to the framing layer:
// what it stages is byte for byte what a FrameWriter would have written, an
// oversized envelope is refused without disturbing what is already staged,
// and Reset starts over.
func TestEnvelopeBatchMatchesFrameWriter(t *testing.T) {
	var want bytes.Buffer
	fw := NewFrameWriter(&want)
	var batch EnvelopeBatch
	_ = batch.Add(&Envelope{Type: MsgError, Seq: 99}) // dropped by the Reset
	batch.Reset()
	for i := uint64(1); i <= 5; i++ {
		env := &Envelope{Type: MsgFramePush, Seq: i, Session: 9, Payload: bytes.Repeat([]byte{byte(i)}, int(i)*100)}
		if err := fw.WriteEnvelope(env); err != nil {
			t.Fatal(err)
		}
		if err := batch.Add(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Add(&Envelope{Type: MsgFramePush, Payload: make([]byte, MaxFrameSize)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized envelope: err = %v, want ErrTooLarge", err)
	}
	if !bytes.Equal(batch.Bytes(), want.Bytes()) {
		t.Fatalf("batch staged %d bytes that differ from the FrameWriter's %d", len(batch.Bytes()), want.Len())
	}
}

func TestEnvelopePayloadCopiedOnRead(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	_ = fw.WriteEnvelope(&Envelope{Type: MsgAck, Seq: 1, Payload: []byte("first")})
	_ = fw.WriteEnvelope(&Envelope{Type: MsgAck, Seq: 2, Payload: []byte("secnd")})
	_ = fw.Flush()
	fr := NewFrameReader(&buf)
	e1, err := fr.ReadEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.ReadEnvelope(); err != nil {
		t.Fatal(err)
	}
	if string(e1.Payload) != "first" {
		t.Fatalf("payload of first envelope clobbered: %q", e1.Payload)
	}
}
