package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"arbd/internal/geo"
	"arbd/internal/render"
	"arbd/internal/wire"
)

func deltaAnn(id uint64, label string, x, y float64) render.Annotation {
	return render.Annotation{
		ID: id, Label: label, X: x, Y: y, W: 40, H: 12,
		Anchor: geo.Point{Lat: 22.33 + float64(id)/1e4, Lon: 114.26},
		Placed: true,
	}
}

// keptBase is what a session keeps of a layout as its delta base.
func keptBase(laid []render.Annotation) []keptAnnotation {
	s := &Session{}
	s.keepLayout(laid)
	return s.base
}

// deltaFixture is a frame and the annotations of the frame before it,
// differing by moved fields, a label rewrite, annotation churn (one added,
// one dropped) and reordering.
func deltaFixture() ([]render.Annotation, *Frame) {
	prevAnns := []render.Annotation{
		deltaAnn(1, "cafe", 10, 10),
		deltaAnn(2, "atm", 50, 20),
		deltaAnn(3, "gate", 90, 40),
	}
	moved := deltaAnn(2, "atm 24h", 55, 20) // X moved, label rewritten
	tower := deltaAnn(4, "tower", 120, 5)   // new this frame
	tower.XRay = true
	return prevAnns, &Frame{
		// Annotation 3 dropped; 2 now leads — order and membership both
		// changed, so the diff walk's cursor has to handle a reorder.
		Annotations: []render.Annotation{moved, prevAnns[0], tower},
		base:        keptBase(prevAnns),
		Level:       1,
		Elapsed:     7 * time.Millisecond,
	}
}

// TestFrameDeltaApplyReproducesFullEncoding pins the interchangeability
// contract EncodeFrameDeltaInto documents: applying a diff payload to the
// base frame and re-encoding the result reproduces the full encoding byte
// for byte — across moved fields, a label rewrite, annotation churn
// (one added, one dropped), and reordering between frames.
func TestFrameDeltaApplyReproducesFullEncoding(t *testing.T) {
	prevAnns, cur := deltaFixture()
	var full, delta wire.Buffer
	EncodeFrameInto(&full, cur)
	EncodeFrameDeltaInto(&delta, cur, false)
	if FrameDeltaIsKeyframe(delta.Bytes()) {
		t.Fatal("diff encoding flagged as keyframe")
	}
	if len(delta.Bytes()) >= len(full.Bytes()) {
		t.Fatalf("delta (%dB) not smaller than full (%dB)", len(delta.Bytes()), len(full.Bytes()))
	}

	base, err := DecodeFrame(encodeFrame(&Frame{Annotations: prevAnns, Elapsed: 5 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	applied, err := ApplyFrameDelta(base, delta.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var re wire.Buffer
	EncodeFrameInto(&re, &Frame{
		Annotations: applied.Annotations,
		Level:       applied.Level,
		Elapsed:     time.Duration(applied.ElapsedNs),
	})
	if !bytes.Equal(re.Bytes(), full.Bytes()) {
		t.Fatalf("apply+re-encode diverged from full encoding:\n full %x\n re   %x",
			full.Bytes(), re.Bytes())
	}
}

// TestFrameDeltaKeyframeAndBaseErrors pins the resync contract: keyframe
// payloads decode with no base, diff payloads against a missing base fail
// typed with ErrDeltaBase (the signal that drives WantKeyframe acks), and
// a frame without a delta base encodes as a keyframe regardless of what
// the caller asked for.
func TestFrameDeltaKeyframeAndBaseErrors(t *testing.T) {
	cur := &Frame{
		Annotations: []render.Annotation{deltaAnn(7, "pier", 30, 60)},
		base:        keptBase([]render.Annotation{deltaAnn(7, "pier", 28, 60)}),
		Elapsed:     3 * time.Millisecond,
	}
	var key, diff, full wire.Buffer
	EncodeFrameDeltaInto(&key, cur, true)
	EncodeFrameDeltaInto(&diff, cur, false)
	EncodeFrameInto(&full, cur)

	if !FrameDeltaIsKeyframe(key.Bytes()) {
		t.Fatal("keyframe payload not flagged")
	}
	applied, err := ApplyFrameDelta(nil, key.Bytes())
	if err != nil {
		t.Fatalf("keyframe must apply with nil base: %v", err)
	}
	var re wire.Buffer
	EncodeFrameInto(&re, &Frame{
		Annotations: applied.Annotations,
		Level:       applied.Level,
		Elapsed:     time.Duration(applied.ElapsedNs),
	})
	if !bytes.Equal(re.Bytes(), full.Bytes()) {
		t.Fatal("keyframe round-trip diverged from full encoding")
	}

	if _, err := ApplyFrameDelta(nil, diff.Bytes()); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("diff with nil base: err = %v, want ErrDeltaBase", err)
	}

	first := &Frame{Annotations: cur.Annotations, Elapsed: cur.Elapsed} // no base
	var forced wire.Buffer
	EncodeFrameDeltaInto(&forced, first, false)
	if !FrameDeltaIsKeyframe(forced.Bytes()) {
		t.Fatal("frame without a base must encode as a keyframe")
	}
}

// FuzzApplyFrameDelta runs the client's apply path — DecodeFrame of the
// base, then ApplyFrameDelta — on hostile bytes: it must never panic, and
// whatever it does not accept it refuses with an error. Seeds are the base,
// diff and keyframe payloads of TestFrameDeltaApplyReproducesFullEncoding.
func FuzzApplyFrameDelta(f *testing.F) {
	prevAnns, cur := deltaFixture()
	base := encodeFrame(&Frame{Annotations: prevAnns, Elapsed: 5 * time.Millisecond})
	var diff, key wire.Buffer
	EncodeFrameDeltaInto(&diff, cur, false)
	EncodeFrameDeltaInto(&key, cur, true)
	f.Add(base, diff.Bytes())
	f.Add(base, key.Bytes())
	f.Add([]byte(nil), key.Bytes())
	f.Fuzz(func(t *testing.T, basePayload, delta []byte) {
		prev, err := DecodeFrame(basePayload)
		if err != nil {
			prev = nil
		}
		applied, err := ApplyFrameDelta(prev, delta)
		if err == nil && applied == nil {
			t.Fatal("ApplyFrameDelta returned neither a frame nor an error")
		}
	})
}

// FuzzDecodeFrame: a client decodes every polled frame and every keyframe
// from bytes a server sent. Decode must not panic, and decode → encode →
// decode is a fixed point (compared as bytes: a hostile frame may carry NaN
// geometry).
func FuzzDecodeFrame(f *testing.F) {
	prevAnns, cur := deltaFixture()
	f.Add(encodeFrame(&Frame{Annotations: prevAnns, Elapsed: 5 * time.Millisecond}))
	f.Add(encodeFrame(cur))
	f.Add(encodeFrame(&Frame{Level: DegradeInterp}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // implausible count
	f.Add([]byte{2, 1, 1, 'x'})                 // count past the annotations present
	encode := func(d *DecodedFrame) []byte {
		return encodeFrame(&Frame{Annotations: d.Annotations, Level: d.Level, Elapsed: time.Duration(d.ElapsedNs)})
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		d, err := DecodeFrame(p)
		if err != nil {
			return
		}
		first := encode(d)
		again, err := DecodeFrame(first)
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if !bytes.Equal(encode(again), first) {
			t.Fatal("decode → encode is not a fixed point")
		}
	})
}
