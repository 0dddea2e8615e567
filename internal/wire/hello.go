package wire

import "fmt"

// Protocol versions carried in the hello handshake. Every connection —
// client→standalone, client→router, router→shard — opens with a MsgHello
// from the dialer announcing the highest version it speaks; the listener
// answers with its own and both sides independently settle on the lower of
// the two (Negotiate). Versions are additive: vN+1 keeps every vN message.
const (
	// ProtoV1 was the original request/reply protocol (sensor streams in,
	// MsgFrameRequest/MsgAnnotations round-trips out, hello optional).
	// Below ProtoMin: the number stays pinned so it is never reused.
	ProtoV1 uint32 = 1
	// ProtoV2 added subscription streaming: MsgSubscribe/MsgUnsubscribe/
	// MsgFramePush, with the server owning the frame clock. Below ProtoMin.
	ProtoV2 uint32 = 2
	// ProtoV3 adds the membership control plane: MsgJoinShard/MsgLeaveShard/
	// MsgMembership on admin connections and MsgMigrateSession on
	// router→shard connections (live session migration during join/drain).
	// Client-facing traffic is unchanged from v2.
	ProtoV3 uint32 = 3
	// ProtoV4 adds delta frame pushes: a subscriber may set SubFlagDelta in
	// MsgSubscribe, after which the server interleaves MsgFrameDelta diffs
	// between MsgFramePush-style keyframes and the client acks applied
	// frames with MsgAck (see PROTOCOL.md §8). Fail-soft: a v3 peer never
	// sets the flag and keeps receiving full MsgFramePush frames.
	ProtoV4 uint32 = 4
	// ProtoMin and ProtoMax bound what this build speaks: a peer announcing
	// less than ProtoMin fails the handshake.
	ProtoMin = ProtoV3
	ProtoMax = ProtoV4
)

// VersionError is the typed handshake failure: the two sides share no
// protocol version the caller can operate at. It fails closed — the
// connection must be torn down, never continued on a guessed version.
type VersionError struct {
	// Local and Remote are the versions each side announced.
	Local, Remote uint32
	// Need is the minimum version the failing caller required.
	Need uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: protocol version mismatch: local v%d, remote v%d, need >= v%d",
		e.Local, e.Remote, e.Need)
}

// Negotiate settles the protocol for a connection whose sides announced
// local and remote as their highest supported versions: the lower of the
// two. It fails closed with a *VersionError when that shared version is
// below need — the minimum the caller can operate at — or below ProtoMin,
// the floor nobody can operate under.
func Negotiate(local, remote, need uint32) (uint32, error) {
	v := local
	if remote < v {
		v = remote
	}
	if need < ProtoMin {
		need = ProtoMin
	}
	if v < need {
		return 0, &VersionError{Local: local, Remote: remote, Need: need}
	}
	return v, nil
}

// Hello is the payload of a MsgHello envelope: each side of a connection
// announces who it is and what protocol it speaks before envelopes flow.
// A router dialing a shard checks the shard's reply against the membership
// config, so a miswired address fails the handshake instead of silently
// owning a slice of the session ID space; a server answering a client
// carries the session ID it assigned the connection.
type Hello struct {
	// ID identifies the node: a shard's ring member ID in backend
	// handshakes, the assigned session ID in a server→client reply,
	// 0 otherwise.
	ID uint64
	// Name is a human-readable role label for logs ("router", "shard-2",
	// "client").
	Name string
	// Version is the highest protocol version the sender speaks.
	Version uint32
}

// EncodeHelloInto appends h's wire form to buf. A zero Version is encoded
// as ProtoMin so a half-initialised Hello can never announce the invalid
// version 0.
func EncodeHelloInto(buf *Buffer, h Hello) {
	buf.Uvarint(h.ID)
	buf.String(h.Name)
	if h.Version == 0 {
		h.Version = ProtoMin
	}
	buf.Uvarint(uint64(h.Version))
}

// DecodeHello parses a hello payload. All three fields are mandatory: a
// payload ending after the name is truncated, not a down-level peer.
func DecodeHello(p []byte) (Hello, error) {
	r := NewReader(p)
	var h Hello
	var err error
	if h.ID, err = r.Uvarint(); err != nil {
		return h, r.Err(err, "hello id")
	}
	if h.Name, err = r.String(); err != nil {
		return h, r.Err(err, "hello name")
	}
	v, err := r.Uvarint()
	if err != nil {
		return h, r.Err(err, "hello version")
	}
	if v == 0 || v > 1<<31 {
		return h, fmt.Errorf("wire: implausible hello version %d", v)
	}
	h.Version = uint32(v)
	return h, nil
}
