package core

import (
	"fmt"

	"arbd/internal/arml"
	"arbd/internal/render"
	"arbd/internal/wire"
)

// ToARML exports the frame as an ARML document — the interchange form the
// paper's §4.2 argues AR clients and data producers should meet on.
func (f *Frame) ToARML() ([]byte, error) {
	doc := &arml.Document{}
	for _, a := range f.Annotations {
		feat := arml.Feature{
			ID:      fmt.Sprintf("ann-%d", a.ID),
			Name:    a.Label,
			Enabled: true,
			Tags:    f.TagsFor[a.ID],
			Anchors: []arml.Anchor{{
				Lat:  a.Anchor.Lat,
				Lon:  a.Anchor.Lon,
				AltM: a.AnchorHM,
				Assets: []arml.VisualAsset{{
					Kind: arml.AssetText,
					Text: a.Label,
				}},
			}},
		}
		if a.XRay {
			feat.Tags = append(feat.Tags, arml.Tag{Key: "style", Value: "xray"})
		}
		doc.Features = append(doc.Features, feat)
	}
	return arml.Encode(doc)
}

// EncodeFrameInto appends the frame's overlay, encoded for the TCP server
// protocol, to buf: count, then per annotation (id, label, box, anchor,
// flags), then level and elapsed time. The encoded bytes (buf.Bytes) alias
// buf's storage and are valid until buf is reset or reused, which lets the
// server encode each response into a pooled buffer and hand it to the framed
// writer without allocating per frame.
//
//arbd:hotpath
func EncodeFrameInto(buf *wire.Buffer, f *Frame) {
	buf.Uvarint(uint64(len(f.Annotations)))
	for _, a := range f.Annotations {
		buf.Uvarint(a.ID)
		buf.String(a.Label)
		buf.Float64(a.X)
		buf.Float64(a.Y)
		buf.Float64(a.W)
		buf.Float64(a.H)
		buf.Float64(a.Anchor.Lat)
		buf.Float64(a.Anchor.Lon)
		buf.Bool(a.XRay)
	}
	buf.Uvarint(uint64(f.Level))
	buf.Uvarint(uint64(f.Elapsed.Nanoseconds()))
}

// frameDeltaKey is the flag bit (leading payload byte) marking a
// MsgFrameDelta payload as a keyframe: a full EncodeFrameInto body follows
// instead of a diff.
const frameDeltaKey = 1 << 0

// Per-annotation field mask bits of the delta encoding, in encode order. A
// set bit means the field's new value follows; a clear bit means the value
// carries over from the base frame's annotation with the same ID.
const (
	deltaX = 1 << iota
	deltaY
	deltaW
	deltaH
	deltaLat
	deltaLon
	deltaXRay
	deltaLabel
	deltaAll = deltaX | deltaY | deltaW | deltaH | deltaLat | deltaLon | deltaXRay | deltaLabel
)

// ErrDeltaBase reports a delta payload that cannot be applied because the
// caller holds no base frame (or the wrong one). Clients recover by
// requesting a keyframe (wire.FrameAck.WantKeyframe).
var ErrDeltaBase = fmt.Errorf("core: frame delta without a matching base frame")

// FrameDeltaIsKeyframe reports whether a MsgFrameDelta payload is a
// keyframe — applicable with no base — rather than a diff.
func FrameDeltaIsKeyframe(p []byte) bool {
	return len(p) > 0 && p[0]&frameDeltaKey != 0
}

// EncodeFrameDeltaInto appends the frame's delta wire encoding (protocol
// v4, MsgFrameDelta payload) to buf. With keyframe set — or when the frame
// carries no usable base — the payload is a flagged full frame. Otherwise
// it diffs f.Annotations against the frame's delta base, the encoded
// fields the session kept of its previous layout, which hold until this
// frame's visit has ended: per annotation a field mask selects only the
// values that moved, and annotations absent from the new frame are dropped
// implicitly by the walk. Applying the delta to the base reproduces the
// full encoding byte for byte (the walk preserves annotation order), which
// is what keeps keyframes and deltas interchangeable downstream.
//
// The caller decides keyframe cadence; the encoder only forces one when
// the frame has no base — until the session has laid out an annotation.
//
//arbd:hotpath
func EncodeFrameDeltaInto(buf *wire.Buffer, f *Frame, keyframe bool) {
	if keyframe || f.base == nil {
		buf.Byte(frameDeltaKey)
		EncodeFrameInto(buf, f)
		return
	}
	buf.Byte(0)
	buf.Uvarint(uint64(len(f.Annotations)))
	cursor := 0
	for i := range f.Annotations {
		a := &f.Annotations[i]
		buf.Uvarint(a.ID)
		var mask byte
		p, ok := findKept(f.base, &cursor, a.ID)
		if !ok {
			mask = deltaAll
		} else {
			if a.X != p.X {
				mask |= deltaX
			}
			if a.Y != p.Y {
				mask |= deltaY
			}
			if a.W != p.W {
				mask |= deltaW
			}
			if a.H != p.H {
				mask |= deltaH
			}
			if a.Anchor.Lat != p.Anchor.Lat {
				mask |= deltaLat
			}
			if a.Anchor.Lon != p.Anchor.Lon {
				mask |= deltaLon
			}
			if a.XRay != p.XRay {
				mask |= deltaXRay
			}
			if a.Label != p.Label {
				mask |= deltaLabel
			}
		}
		buf.Byte(mask)
		if mask&deltaX != 0 {
			buf.Float64(a.X)
		}
		if mask&deltaY != 0 {
			buf.Float64(a.Y)
		}
		if mask&deltaW != 0 {
			buf.Float64(a.W)
		}
		if mask&deltaH != 0 {
			buf.Float64(a.H)
		}
		if mask&deltaLat != 0 {
			buf.Float64(a.Anchor.Lat)
		}
		if mask&deltaLon != 0 {
			buf.Float64(a.Anchor.Lon)
		}
		if mask&deltaXRay != 0 {
			buf.Bool(a.XRay)
		}
		if mask&deltaLabel != 0 {
			buf.String(a.Label)
		}
	}
	buf.Uvarint(uint64(f.Level))
	buf.Uvarint(uint64(f.Elapsed.Nanoseconds()))
}

// findKept locates the annotation with the given ID in a session's delta
// base, scanning from a rolling cursor as findAnn does.
func findKept(base []keptAnnotation, cursor *int, id uint64) (*keptAnnotation, bool) {
	n := len(base)
	for k := 0; k < n; k++ {
		i := *cursor + k
		if i >= n {
			i -= n
		}
		if base[i].ID == id {
			*cursor = i + 1
			return &base[i], true
		}
	}
	return nil, false
}

// findAnn locates the annotation with the given ID in prev, scanning from a
// rolling cursor: consecutive frames keep annotations in nearly the same
// order, so the match is usually the very next element and the scan stays
// O(1) amortised without an ID map.
func findAnn(prev []render.Annotation, cursor *int, id uint64) (*render.Annotation, bool) {
	n := len(prev)
	for k := 0; k < n; k++ {
		i := *cursor + k
		if i >= n {
			i -= n
		}
		if prev[i].ID == id {
			*cursor = i + 1
			return &prev[i], true
		}
	}
	return nil, false
}

// ApplyFrameDelta decodes a MsgFrameDelta payload against the previously
// applied frame. Keyframe payloads decode standalone (prev may be nil);
// diff payloads start each annotation from prev's annotation with the same
// ID and overwrite only the masked fields. The caller is responsible for
// seq continuity — applying a diff across a push gap silently resurrects
// stale values, which is why clients must request a keyframe on any gap.
func ApplyFrameDelta(prev *DecodedFrame, p []byte) (*DecodedFrame, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("core: empty frame delta payload")
	}
	if p[0]&frameDeltaKey != 0 {
		return DecodeFrame(p[1:])
	}
	if prev == nil {
		return nil, ErrDeltaBase
	}
	r := wire.NewReader(p[1:])
	n, err := r.Uvarint()
	if err != nil {
		return nil, r.Err(err, "delta count")
	}
	if n > 10000 {
		return nil, fmt.Errorf("core: implausible annotation count %d", n)
	}
	out := &DecodedFrame{Annotations: make([]render.Annotation, 0, n)}
	cursor := 0
	for i := uint64(0); i < n; i++ {
		id, err := r.Uvarint()
		if err != nil {
			return nil, r.Err(err, "delta id")
		}
		mask, err := r.Byte()
		if err != nil {
			return nil, r.Err(err, "delta mask")
		}
		var a render.Annotation
		if base, ok := findAnn(prev.Annotations, &cursor, id); ok {
			a = *base
		} else if mask != deltaAll {
			// A partial mask against a base we don't hold would fill the
			// unmasked fields with zeroes — a corrupt overlay. Fail typed.
			return nil, ErrDeltaBase
		}
		a.ID = id
		if mask&deltaX != 0 {
			if a.X, err = r.Float64(); err != nil {
				return nil, r.Err(err, "delta geometry")
			}
		}
		if mask&deltaY != 0 {
			if a.Y, err = r.Float64(); err != nil {
				return nil, r.Err(err, "delta geometry")
			}
		}
		if mask&deltaW != 0 {
			if a.W, err = r.Float64(); err != nil {
				return nil, r.Err(err, "delta geometry")
			}
		}
		if mask&deltaH != 0 {
			if a.H, err = r.Float64(); err != nil {
				return nil, r.Err(err, "delta geometry")
			}
		}
		if mask&deltaLat != 0 {
			if a.Anchor.Lat, err = r.Float64(); err != nil {
				return nil, r.Err(err, "delta geometry")
			}
		}
		if mask&deltaLon != 0 {
			if a.Anchor.Lon, err = r.Float64(); err != nil {
				return nil, r.Err(err, "delta geometry")
			}
		}
		if mask&deltaXRay != 0 {
			if a.XRay, err = r.Bool(); err != nil {
				return nil, r.Err(err, "delta flags")
			}
		}
		if mask&deltaLabel != 0 {
			if a.Label, err = r.String(); err != nil {
				return nil, r.Err(err, "delta label")
			}
		}
		a.Placed = true
		out.Annotations = append(out.Annotations, a)
	}
	lvl, err := r.Uvarint()
	if err != nil {
		return nil, r.Err(err, "delta level")
	}
	out.Level = DegradeLevel(lvl)
	if out.ElapsedNs, err = r.Uvarint(); err != nil {
		return nil, r.Err(err, "delta elapsed")
	}
	return out, nil
}

// DecodedFrame is the client-side view of an encoded frame.
type DecodedFrame struct {
	Annotations []render.Annotation
	Level       DegradeLevel
	ElapsedNs   uint64
	// Seq is the stream's push counter for frames that arrived over a
	// subscription (MsgFramePush): strictly increasing per stream, with
	// gaps where the server skipped ticks or dropped queued pushes under
	// backpressure. The client rebases across server-side stream restarts
	// (a router replaying the subscription onto a reconnected shard), so
	// the property holds for the life of the Subscribe channel. Zero for
	// frames fetched by request/reply.
	Seq uint64
}

// DecodeFrame parses EncodeFrameInto output.
func DecodeFrame(p []byte) (*DecodedFrame, error) {
	r := wire.NewReader(p)
	n, err := r.Uvarint()
	if err != nil {
		return nil, r.Err(err, "count")
	}
	if n > 10000 {
		return nil, fmt.Errorf("core: implausible annotation count %d", n)
	}
	out := &DecodedFrame{Annotations: make([]render.Annotation, 0, n)}
	for i := uint64(0); i < n; i++ {
		var a render.Annotation
		if a.ID, err = r.Uvarint(); err != nil {
			return nil, r.Err(err, "id")
		}
		if a.Label, err = r.String(); err != nil {
			return nil, r.Err(err, "label")
		}
		for _, dst := range []*float64{&a.X, &a.Y, &a.W, &a.H, &a.Anchor.Lat, &a.Anchor.Lon} {
			if *dst, err = r.Float64(); err != nil {
				return nil, r.Err(err, "geometry")
			}
		}
		if a.XRay, err = r.Bool(); err != nil {
			return nil, r.Err(err, "flags")
		}
		a.Placed = true
		out.Annotations = append(out.Annotations, a)
	}
	lvl, err := r.Uvarint()
	if err != nil {
		return nil, r.Err(err, "level")
	}
	out.Level = DegradeLevel(lvl)
	if out.ElapsedNs, err = r.Uvarint(); err != nil {
		return nil, r.Err(err, "elapsed")
	}
	return out, nil
}
