package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxFrameSize bounds a single frame's payload so a corrupt length prefix
// cannot trigger an unbounded allocation.
const MaxFrameSize = 16 << 20 // 16 MiB

// MsgType identifies the kind of payload inside an envelope. Values are part
// of the wire protocol; do not reorder.
type MsgType uint8

// Message types understood by the platform. Enums start at 1 so the zero
// value is detectably invalid.
const (
	MsgSensorEvent MsgType = iota + 1
	MsgFrameRequest
	MsgAnnotations
	MsgQuery
	MsgQueryResult
	MsgControl
	MsgAck
	MsgError
	// MsgLoad carries a node's backend-pressure signal (core.LoadSignal):
	// shard nodes push it periodically over backend connections so routers
	// can run lag-aware admission against remote pressure.
	MsgLoad
	// MsgHello opens a connection: each side identifies itself (see Hello)
	// and announces its protocol version before envelopes flow, so a router
	// can detect a miswired shard address and both sides can negotiate the
	// protocol instead of silently misbehaving across versions.
	MsgHello
	// MsgSubscribe (protocol v2) asks the server to push frames at a target
	// cadence (see Subscribe) instead of the client polling with
	// MsgFrameRequest. Acknowledged with MsgAck carrying the request's Seq.
	MsgSubscribe
	// MsgUnsubscribe (protocol v2) cancels the session's frame subscription.
	// Acknowledged with MsgAck carrying the request's Seq.
	MsgUnsubscribe
	// MsgFramePush (protocol v2) is one server-pushed overlay frame: the
	// payload is an encoded frame (core.EncodeFrameInto) and Seq is the stream's
	// own monotonically increasing push counter — gaps mean the server
	// skipped ticks or dropped queued pushes under backpressure.
	MsgFramePush
	// MsgJoinShard (protocol v3, control plane) asks a router's admin
	// endpoint to add a shard to the membership: the payload is a member
	// record (membership.EncodeMemberInto). Answered with MsgMembership
	// carrying the new epoch, or MsgError.
	MsgJoinShard
	// MsgLeaveShard (protocol v3, control plane) asks a router's admin
	// endpoint to drain a shard and remove it: the payload is the uvarint
	// member ID. The reply (MsgMembership or MsgError) arrives only after
	// the drain — snapshotting and re-homing every live session — finished.
	MsgLeaveShard
	// MsgMembership (protocol v3, control plane) carries a membership
	// epoch: uvarint epoch, uvarint member count, then each member. Sent as
	// the reply to join/leave/query.
	MsgMembership
	// MsgMigrateSession (protocol v3, router↔shard) moves one live session.
	// Router→shard with an empty payload exports: the shard freezes the
	// session's stream, detaches it, and replies with the state snapshot.
	// Router→shard with a snapshot payload imports it on the new owner.
	// Shard→router replies carry a leading status byte (see server.Mig*).
	MsgMigrateSession
	// MsgFrameDelta (protocol v4) is one server-pushed overlay frame encoded
	// as a diff against the previous frame the stream delivered (see
	// core.EncodeFrameDeltaInto): a leading flags byte distinguishes
	// keyframes (full frame body) from deltas (per-annotation field masks).
	// Seq is the same push counter MsgFramePush uses — a delta applies only
	// when the client holds the frame at Seq-1; any gap forces a keyframe
	// resync via MsgAck. Sent only to subscribers that asked for deltas
	// (SubFlagDelta) on a v4 connection.
	MsgFrameDelta

	// maxMsgType is one past the last valid message type. Every new type
	// goes above this comment and below the last enum value, so Valid()
	// tracks the enum automatically instead of naming its endpoints.
	maxMsgType
)

// String returns the message type's symbolic name.
func (m MsgType) String() string {
	switch m {
	case MsgSensorEvent:
		return "sensor_event"
	case MsgFrameRequest:
		return "frame_request"
	case MsgAnnotations:
		return "annotations"
	case MsgQuery:
		return "query"
	case MsgQueryResult:
		return "query_result"
	case MsgControl:
		return "control"
	case MsgAck:
		return "ack"
	case MsgError:
		return "error"
	case MsgLoad:
		return "load"
	case MsgHello:
		return "hello"
	case MsgSubscribe:
		return "subscribe"
	case MsgUnsubscribe:
		return "unsubscribe"
	case MsgFramePush:
		return "frame_push"
	case MsgJoinShard:
		return "join_shard"
	case MsgLeaveShard:
		return "leave_shard"
	case MsgMembership:
		return "membership"
	case MsgMigrateSession:
		return "migrate_session"
	case MsgFrameDelta:
		return "frame_delta"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(m))
	}
}

// Valid reports whether m is a known message type.
func (m MsgType) Valid() bool { return m >= MsgSensorEvent && m < maxMsgType }

// Envelope is a typed message with routing metadata.
type Envelope struct {
	Type    MsgType
	Seq     uint64 // sender-assigned sequence number
	Session uint64 // session / device identifier
	Payload []byte
}

// EncodeEnvelope appends the envelope's binary form to buf and returns the
// extended slice.
//
//arbd:hotpath
func EncodeEnvelope(buf []byte, env *Envelope) []byte {
	buf = append(buf, byte(env.Type))
	buf = binary.AppendUvarint(buf, env.Seq)
	buf = binary.AppendUvarint(buf, env.Session)
	buf = binary.AppendUvarint(buf, uint64(len(env.Payload)))
	buf = append(buf, env.Payload...)
	return buf
}

// DecodeEnvelope parses an envelope from p. The returned envelope's Payload
// aliases p.
func DecodeEnvelope(p []byte) (*Envelope, error) {
	env := &Envelope{}
	if err := DecodeEnvelopeInto(env, p); err != nil {
		return nil, err
	}
	return env, nil
}

// DecodeEnvelopeInto parses an envelope from p into env, overwriting every
// field. env.Payload aliases p. Connection loops reuse one Envelope across
// reads to keep the inbound path allocation-free.
//
//arbd:hotpath
func DecodeEnvelopeInto(env *Envelope, p []byte) error {
	if len(p) < 1 {
		return ErrShortBuffer
	}
	env.Type = MsgType(p[0])
	if !env.Type.Valid() {
		//arbd:alloc-ok malformed-input error path; valid envelopes never reach it
		return fmt.Errorf("wire: invalid message type %d", p[0])
	}
	r := Reader{b: p[1:]}
	var err error
	if env.Seq, err = r.Uvarint(); err != nil {
		return r.Err(err, "seq")
	}
	if env.Session, err = r.Uvarint(); err != nil {
		return r.Err(err, "session")
	}
	if env.Payload, err = r.Bytes8(); err != nil {
		return r.Err(err, "payload")
	}
	return nil
}

// FrameWriter writes checksummed, length-prefixed frames to an io.Writer.
// Frame layout: 4-byte length N (little endian) | 4-byte CRC32C of payload |
// N payload bytes. Not safe for concurrent use.
type FrameWriter struct {
	w   *bufio.Writer
	hdr [8]byte
	env []byte // reusable envelope encode buffer (FrameWriter is single-user)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// NewFrameWriter returns a FrameWriter over w.
func NewFrameWriter(w io.Writer) *FrameWriter {
	return &FrameWriter{w: bufio.NewWriter(w)}
}

// WriteFrame writes one frame containing payload.
//
//arbd:hotpath
func (fw *FrameWriter) WriteFrame(payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrTooLarge
	}
	binary.LittleEndian.PutUint32(fw.hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(fw.hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		//arbd:alloc-ok connection-failure error path
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	if _, err := fw.w.Write(payload); err != nil {
		//arbd:alloc-ok connection-failure error path
		return fmt.Errorf("wire: writing frame payload: %w", err)
	}
	return nil
}

// Flush flushes buffered frames to the underlying writer.
func (fw *FrameWriter) Flush() error { return fw.w.Flush() }

// FrameReader reads frames written by FrameWriter. Not safe for concurrent
// use.
type FrameReader struct {
	r   *bufio.Reader
	hdr [8]byte
	buf []byte
}

// NewFrameReader returns a FrameReader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReader(r)}
}

// ReadFrame reads the next frame payload. The returned slice is reused by
// subsequent calls; callers that retain it must copy. io.EOF is returned
// cleanly at end of stream.
func (fr *FrameReader) ReadFrame() ([]byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(fr.hdr[0:4])
	sum := binary.LittleEndian.Uint32(fr.hdr[4:8])
	if n > MaxFrameSize {
		return nil, ErrTooLarge
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return nil, fmt.Errorf("wire: reading frame payload: %w", err)
	}
	if crc32.Checksum(fr.buf, castagnoli) != sum {
		return nil, ErrChecksum
	}
	return fr.buf, nil
}

// WriteEnvelope frames and writes env in one call, reusing the writer's
// internal encode buffer across calls.
//
//arbd:hotpath
func (fw *FrameWriter) WriteEnvelope(env *Envelope) error {
	fw.env = EncodeEnvelope(fw.env[:0], env)
	return fw.WriteFrame(fw.env)
}

// EnvelopeBatch stages many envelopes as one contiguous run of frames —
// each an 8-byte frame header followed by its encoded envelope — so a
// writer that drained a backlog puts all of it on the wire with a single
// Write. The batch keeps no per-envelope allocations alive across Reset, so
// a writer loop can reuse one batch for its lifetime. Not safe for
// concurrent use.
type EnvelopeBatch struct {
	buf []byte
}

// Reset drops staged envelopes, retaining capacity.
func (b *EnvelopeBatch) Reset() { b.buf = b.buf[:0] }

// Add frames env behind what is already staged.
//
//arbd:hotpath
func (b *EnvelopeBatch) Add(env *Envelope) error {
	start := len(b.buf)
	b.buf = append(b.buf, 0, 0, 0, 0, 0, 0, 0, 0) // the header, filled in below
	b.buf = EncodeEnvelope(b.buf, env)
	body := b.buf[start+8:]
	if len(body) > MaxFrameSize {
		b.buf = b.buf[:start]
		return ErrTooLarge
	}
	binary.LittleEndian.PutUint32(b.buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b.buf[start+4:], crc32.Checksum(body, castagnoli))
	return nil
}

// Bytes returns the staged frames, valid until the next Add or Reset.
func (b *EnvelopeBatch) Bytes() []byte { return b.buf }

// ReadEnvelope reads one frame and decodes it as an envelope. The envelope's
// payload is copied so callers may retain it.
func (fr *FrameReader) ReadEnvelope() (*Envelope, error) {
	p, err := fr.ReadFrame()
	if err != nil {
		return nil, err
	}
	env, err := DecodeEnvelope(p)
	if err != nil {
		return nil, err
	}
	env.Payload = append([]byte(nil), env.Payload...)
	return env, nil
}

// ReadEnvelopeReuse reads one frame and decodes it into env without copying:
// env.Payload aliases the reader's internal frame buffer and is valid only
// until the next Read call. Connection loops that fully apply each message
// before reading the next use it to keep the inbound path allocation-free.
func (fr *FrameReader) ReadEnvelopeReuse(env *Envelope) error {
	p, err := fr.ReadFrame()
	if err != nil {
		return err
	}
	return DecodeEnvelopeInto(env, p)
}
