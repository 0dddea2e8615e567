// Session state snapshot/restore: the serialization layer under live
// session migration. When a shard drains (or the ring remaps a session to
// a new owner), the session's mutable state — tracking solution, gaze
// dwell and degradation level — is exported as one payload, shipped
// through the router inside a MsgMigrateSession envelope, and imported
// into the destination platform's registry. The destination then serves
// frames indistinguishable from the source's next frame: no sensor
// re-warm. Telemetry is not part of it: every interaction is folded into
// the source's analytics by the time its sensor call returned, and the
// destination folds what arrives after the import.
package core

import (
	"fmt"
	"slices"

	"arbd/internal/tracking"
	"arbd/internal/wire"
)

// sessionSnapshotV3 is the snapshot format version byte. Bump on any
// layout change; decoders reject versions they don't know (migrations run
// between same-build nodes, so fail-closed beats best-effort). Version 1
// also carried buffered telemetry and version 2 a session RNG stream
// position: refusing them keeps a mixed-build migration from misreading
// either.
const sessionSnapshotV3 = 3

// maxSnapshotGazeEntries bounds a decoded gaze count: a corrupt count must
// not pre-allocate unbounded memory.
const maxSnapshotGazeEntries = 1 << 20

// EncodeSnapshotInto appends the session's complete mutable state to buf.
// Callers treat a snapshotted session as retired and detach it: anything it
// still accepted would be missing from the snapshot.
func (s *Session) EncodeSnapshotInto(buf *wire.Buffer) {
	s.mu.Lock()
	defer s.mu.Unlock()

	buf.Byte(sessionSnapshotV3)
	buf.Uvarint(s.ID)
	buf.Uvarint(uint64(s.level))
	buf.Uvarint(s.frames)
	buf.Uvarint(s.overruns)

	// Gaze entries go in ascending ID, so the bytes are a function of the
	// session's state, not of map order.
	ids := make([]uint64, 0, len(s.gaze))
	for id := range s.gaze {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	buf.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		buf.Uvarint(id)
		buf.Float64(s.gaze[id])
	}

	st := s.fuser.ExportState()
	for _, v := range st.X {
		buf.Float64(v)
	}
	for _, row := range st.P {
		for _, v := range row {
			buf.Float64(v)
		}
	}
	buf.Float64(st.HeadingDeg)
	buf.Float64(st.HeadingVar)
	buf.Varint(st.LastNanos)
	buf.Bool(st.Has)
	buf.Uvarint(uint64(st.GPSUpdates))
	buf.Uvarint(uint64(st.VisionUpdates))
}

// RestoreSession decodes a session snapshot produced by EncodeSnapshotInto
// and registers the rebuilt session in this platform's registry. The
// destination platform must share the source's world config (same city,
// same origin): tracking state is origin-relative. It fails if a session
// with the snapshot's ID is already live — the migration protocol
// guarantees traffic is gated until the import acks, so a collision means
// a protocol bug, not a race to paper over.
func (p *Platform) RestoreSession(payload []byte) (*Session, error) {
	r := wire.NewReader(payload)
	fail := func(err error, what string) (*Session, error) {
		return nil, r.Err(err, "session snapshot "+what)
	}

	version, err := r.Uvarint()
	if err != nil {
		return fail(err, "version")
	}
	if version != sessionSnapshotV3 {
		return nil, fmt.Errorf("core: unknown session snapshot version %d", version)
	}
	id, err := r.Uvarint()
	if err != nil {
		return fail(err, "id")
	}
	if id == 0 {
		return nil, fmt.Errorf("core: session snapshot with zero ID")
	}
	level, err := r.Uvarint()
	if err != nil {
		return fail(err, "level")
	}
	frames, err := r.Uvarint()
	if err != nil {
		return fail(err, "frames")
	}
	overruns, err := r.Uvarint()
	if err != nil {
		return fail(err, "overruns")
	}

	nGaze, err := r.Uvarint()
	if err != nil {
		return fail(err, "gaze count")
	}
	if nGaze > maxSnapshotGazeEntries {
		return nil, fmt.Errorf("core: implausible gaze entry count %d", nGaze)
	}
	gaze := make(map[uint64]float64, nGaze)
	for i := uint64(0); i < nGaze; i++ {
		key, err := r.Uvarint()
		if err != nil {
			return fail(err, "gaze key")
		}
		dwell, err := r.Float64()
		if err != nil {
			return fail(err, "gaze dwell")
		}
		gaze[key] = dwell
	}

	var st tracking.FuserState
	for i := range st.X {
		if st.X[i], err = r.Float64(); err != nil {
			return fail(err, "fuser state")
		}
	}
	for i := range st.P {
		for j := range st.P[i] {
			if st.P[i][j], err = r.Float64(); err != nil {
				return fail(err, "fuser covariance")
			}
		}
	}
	if st.HeadingDeg, err = r.Float64(); err != nil {
		return fail(err, "fuser heading")
	}
	if st.HeadingVar, err = r.Float64(); err != nil {
		return fail(err, "fuser heading variance")
	}
	if st.LastNanos, err = r.Varint(); err != nil {
		return fail(err, "fuser clock")
	}
	if st.Has, err = r.Bool(); err != nil {
		return fail(err, "fuser has")
	}
	gps, err := r.Uvarint()
	if err != nil {
		return fail(err, "fuser gps updates")
	}
	vision, err := r.Uvarint()
	if err != nil {
		return fail(err, "fuser vision updates")
	}
	st.GPSUpdates, st.VisionUpdates = int(gps), int(vision)

	// Keep platform-assigned IDs ahead of imported ones, exactly as
	// SessionOrNew does for router-minted IDs.
	for {
		cur := p.nextSess.Load()
		if cur >= id || p.nextSess.CompareAndSwap(cur, id) {
			break
		}
	}

	s := p.buildSession(id)
	s.level = DegradeLevel(level)
	s.frames = frames
	s.overruns = overruns
	s.gaze = gaze
	s.fuser.RestoreState(st)

	if _, existed := p.sessions.addIfAbsent(s); existed {
		return nil, fmt.Errorf("core: session %d already live; refusing snapshot import", id)
	}
	return s, nil
}
