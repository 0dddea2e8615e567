package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/core"
	"arbd/internal/sensor"
	"arbd/internal/server"
	"arbd/internal/wire"
)

// muxConn is one generator connection speaking the router→shard backend
// protocol: after the hello handshake every envelope names its session, so
// hundreds of sessions ride one socket and one reader goroutine.
type muxConn struct {
	c  *countingConn
	fr *wire.FrameReader

	wmu sync.Mutex // guards fw, buf, seq
	fw  *wire.FrameWriter
	buf wire.Buffer
	seq uint64
}

// dialMux connects to a shard's backend listener and settles the protocol.
func dialMux(addr string, maxProto uint32) (*muxConn, error) {
	raw, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &countingConn{Conn: raw}
	m := &muxConn{c: c, fr: wire.NewFrameReader(c), fw: wire.NewFrameWriter(c)}
	wire.EncodeHelloInto(&m.buf, wire.Hello{Name: "benchmark", Version: maxProto})
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := m.fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgHello, Seq: 1, Payload: m.buf.Bytes()}); err == nil {
		err = m.fw.Flush()
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	env, err := m.fr.ReadEnvelope()
	if err != nil || env.Type != wire.MsgHello {
		c.Close()
		return nil, fmt.Errorf("hello reply: %v (%v)", err, env)
	}
	peer, err := wire.DecodeHello(env.Payload)
	if err == nil {
		_, err = wire.Negotiate(maxProto, peer.Version, maxProto)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	_ = c.SetDeadline(time.Time{})
	return m, nil
}

// The write* methods stage one envelope; callers hold wmu and flush.

func (m *muxConn) writeEnv(t wire.MsgType, session uint64) uint64 {
	m.seq++
	_ = m.fw.WriteEnvelope(&wire.Envelope{Type: t, Seq: m.seq, Session: session, Payload: m.buf.Bytes()})
	return m.seq
}

func (m *muxConn) writeIMU(session uint64, ts time.Time, st *step) {
	m.buf.Reset()
	m.buf.Byte(server.SensorIMU)
	m.buf.Uvarint(uint64(ts.UnixNano()))
	m.buf.Float64(st.Gyro)
	m.buf.Float64(st.Accel)
	m.buf.Float64(st.Compass)
	m.writeEnv(wire.MsgSensorEvent, session)
}

func (m *muxConn) writeGPS(session uint64, ts time.Time, st *step) {
	m.buf.Reset()
	m.buf.Byte(server.SensorGPS)
	m.buf.Uvarint(uint64(ts.UnixNano()))
	m.buf.Float64(st.Lat)
	m.buf.Float64(st.Lon)
	m.buf.Float64(5)
	m.writeEnv(wire.MsgSensorEvent, session)
}

func (m *muxConn) writeGaze(session uint64, ts time.Time, target uint64, dwellMS float64) {
	m.buf.Reset()
	m.buf.Byte(server.SensorGaze)
	m.buf.Uvarint(uint64(ts.UnixNano()))
	m.buf.Uvarint(target)
	m.buf.Float64(dwellMS)
	m.writeEnv(wire.MsgSensorEvent, session)
}

func (m *muxConn) writeFrameRequest(session uint64) uint64 {
	m.buf.Reset()
	return m.writeEnv(wire.MsgFrameRequest, session)
}

func (m *muxConn) writeSubscribe(session uint64, interval time.Duration, delta bool) uint64 {
	sub := wire.Subscribe{IntervalMS: uint32(interval / time.Millisecond), Budget: 8}
	if delta {
		sub.Flags = wire.SubFlagDelta
	}
	m.buf.Reset()
	wire.EncodeSubscribeInto(&m.buf, sub)
	return m.writeEnv(wire.MsgSubscribe, session)
}

func (m *muxConn) writeAck(session uint64, a wire.FrameAck) {
	m.buf.Reset()
	wire.EncodeFrameAckInto(&m.buf, a)
	m.writeEnv(wire.MsgAck, session)
}

// Session roles.
const (
	rolePoll   uint8 = iota + 1 // paced closed loop: a request per tick, one outstanding
	roleStream                  // subscribed, server-paced
	roleFlood                   // open-loop sensor source, receives no frames
	roleProbe                   // a polling session on a stream workload, RTT only
)

// genSession is the generator's state for one session. The reader goroutine
// of the session's connection owns the receive fields; the scheduler
// goroutine owns the step cursor (set-up sends step 0 before it starts).
type genSession struct {
	sc   *sessionScript
	id   uint64
	role uint8
	conn *muxConn
	step int // next script step (owner: whoever sends this session's sensors)

	// Request/reply state, shared by the scheduler (sends) and the reader
	// (replies), hence atomic.
	sentAt  atomic.Int64 // unix nanos of the outstanding request, 0 if none
	reqSeq  atomic.Uint64
	lastSeq uint64 // last reply or push seq seen (must increase)

	// Stream state.
	delta    bool
	interval time.Duration
	lastAt   time.Time // arrival of the previous frame (any role)
	prevGap  time.Duration
	prev     *core.DecodedFrame
	sinceKey int
	applied  int
	recv     int64 // in-window pushes
	onTime   int64 // in-window pushes within the gap limit

	first atomic.Bool // a first frame has arrived
}

// recorder collects one goroutine's samples; recorders are merged after
// their goroutines have stopped, so nothing here is shared while running.
type recorder struct {
	rttMS, gapMS, jitterMS []float64
	frames                 int64 // correct frames delivered in the window
	pollDone, pollOnTime   int64
	sheds, errs, lost      int64
	keyframes, deltaPushes int64
	violations             int64
	firstViolation         string
	backlog                []float64
	flushP99               time.Duration
}

func (r *recorder) violate(format string, args ...any) {
	r.violations++
	if r.firstViolation == "" {
		r.firstViolation = fmt.Sprintf(format, args...)
	}
}

func (r *recorder) merge(o *recorder) {
	r.rttMS = append(r.rttMS, o.rttMS...)
	r.gapMS = append(r.gapMS, o.gapMS...)
	r.jitterMS = append(r.jitterMS, o.jitterMS...)
	r.backlog = append(r.backlog, o.backlog...)
	r.frames += o.frames
	r.pollDone += o.pollDone
	r.pollOnTime += o.pollOnTime
	r.sheds += o.sheds
	r.errs += o.errs
	r.lost += o.lost
	r.keyframes += o.keyframes
	r.deltaPushes += o.deltaPushes
	r.violations += o.violations
	if r.firstViolation == "" {
		r.firstViolation = o.firstViolation
	}
	if o.flushP99 > r.flushP99 {
		r.flushP99 = o.flushP99
	}
}

// generator drives one workload against one cluster.
type generator struct {
	w      *workload
	sc     *script
	oracle *oracle

	conns    []*muxConn       // mux mode
	clients  []*server.Client // routed mode
	socks    []*countingConn  // every generator socket, either mode
	sessions []*genSession    // script order
	byID     map[uint64]*genSession
	probe    *genSession
	recs     []*recorder // one per reader / client goroutine
	sched    recorder    // the scheduler's own (send errors)

	winStart, winEnd atomic.Int64 // unix nanos, 0 until set
	stopping         atomic.Bool
	firstFrames      atomic.Int32
	eventsSent       atomic.Int64 // sensor envelopes written
	wg               sync.WaitGroup
	scheduling       bool // startSchedule has run
	schedDone        chan struct{}

	// Scheduler-owned; read by the main goroutine only after schedDone.
	sentAt     []int64   // when each interaction was written (unix nanos), in send order
	lagMS      []float32 // in-window lateness of open-loop sends
	pollMissed int64     // in-window polls skipped behind an outstanding request
}

func (g *generator) inWindow(t time.Time) bool {
	n := t.UnixNano()
	s, e := g.winStart.Load(), g.winEnd.Load()
	return s != 0 && n >= s && (e == 0 || n < e)
}

// newGenerator connects to the cluster and lays the script's sessions out
// over the connections. No traffic flows until establish.
func newGenerator(w *workload, sc *script, orc *oracle, front string) (*generator, error) {
	g := &generator{w: w, sc: sc, oracle: orc, byID: make(map[uint64]*genSession), schedDone: make(chan struct{})}
	if w.Routed {
		// The first w.Poll clients poll frames; the rest only carry their
		// share of the interaction schedule.
		for i := 0; i < w.Poll+w.GazeClients; i++ {
			raw, err := net.DialTimeout("tcp", front, 5*time.Second)
			if err != nil {
				g.close()
				return nil, err
			}
			cc := &countingConn{Conn: raw}
			cl, err := server.NewClient(context.Background(), cc, server.DialOptions{Name: "benchmark"})
			if err != nil { // NewClient has closed the socket
				g.close()
				return nil, err
			}
			g.clients = append(g.clients, cl)
			g.socks = append(g.socks, cc)
			if i < w.Poll {
				g.sessions = append(g.sessions, &genSession{sc: &sc.Sessions[i], id: cl.SessionID(), role: rolePoll})
				g.recs = append(g.recs, &recorder{})
			}
		}
		return g, nil
	}
	for _, proto := range []uint32{wire.ProtoV3, wire.ProtoV4} {
		m, err := dialMux(front, proto)
		if err != nil {
			g.close()
			return nil, err
		}
		g.conns = append(g.conns, m)
		g.socks = append(g.socks, m.c)
		g.recs = append(g.recs, &recorder{})
	}
	a, b := g.conns[0], g.conns[1]
	i := 0
	add := func(n int, role uint8, conn func(k int) *muxConn, delta bool) {
		for k := 0; k < n; k++ {
			s := &genSession{sc: &sc.Sessions[i], id: sc.Sessions[i].ID, role: role, conn: conn(k),
				delta: delta, interval: w.StreamInterval}
			g.sessions = append(g.sessions, s)
			g.byID[s.id] = s
			i++
		}
	}
	add(w.Poll, rolePoll, func(k int) *muxConn { return g.conns[k%2] }, false)
	add(w.StreamA, roleStream, func(int) *muxConn { return a }, false)
	add(w.StreamB, roleStream, func(int) *muxConn { return b }, true)
	add(w.Flood, roleFlood, func(int) *muxConn { return a }, false)
	if w.Probe {
		add(1, roleProbe, func(int) *muxConn { return b }, false)
		g.probe = g.sessions[len(g.sessions)-1]
	}
	return g, nil
}

// countingConn counts the bytes read off a socket.
type countingConn struct {
	net.Conn
	rx atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

// rxBytes is the total read off every generator socket so far.
func (g *generator) rxBytes() int64 {
	var n int64
	for _, c := range g.socks {
		n += c.rx.Load()
	}
	return n
}

// framesExpected is how many sessions receive frames.
func (g *generator) framesExpected() int { return len(g.sessions) - g.w.Flood }

// establish starts the readers, places every session (first GPS fix, then
// its first frame request or its subscription) and returns once every
// frame-receiving session has its first frame. Mux-mode traffic continues
// once startSchedule has run; routed clients poll from here on.
func (g *generator) establish(timeout time.Duration) error {
	if g.w.Routed {
		for i, s := range g.sessions {
			g.wg.Add(1)
			go g.runClient(g.clients[i], s, g.recs[i])
		}
	} else {
		for i, m := range g.conns {
			g.wg.Add(1)
			go g.readLoop(m, g.recs[i])
		}
		// Streams subscribe spread over one push interval, as independent
		// devices would: the server paces each stream from its subscribe
		// time, and 512 streams ticking in the same millisecond would
		// measure a burst, not a fan-out.
		var streams int
		for _, s := range g.sessions {
			if s.role == roleStream {
				streams++
			}
		}
		start, placed := time.Now(), 0
		for _, s := range g.sessions {
			if s.role == roleStream {
				due := start.Add(s.interval * time.Duration(placed) / time.Duration(streams))
				placed++
				if wait := time.Until(due); wait > time.Millisecond {
					if err := g.flushAll(); err != nil {
						return fmt.Errorf("placing sessions: %w", err)
					}
					time.Sleep(wait)
				}
			}
			m := s.conn
			m.wmu.Lock()
			m.writeGPS(s.id, stepTime(0), s.sc.at(0))
			s.step = 1 // before sentAt: the reader takes over from there
			g.eventsSent.Add(1)
			switch s.role {
			case rolePoll, roleProbe:
				s.sentAt.Store(time.Now().UnixNano())
				s.reqSeq.Store(m.writeFrameRequest(s.id))
			case roleStream:
				m.writeSubscribe(s.id, s.interval, s.delta)
			}
			m.wmu.Unlock()
		}
		if err := g.flushAll(); err != nil {
			return fmt.Errorf("placing sessions: %w", err)
		}
	}
	deadline := time.Now().Add(timeout)
	for int(g.firstFrames.Load()) < g.framesExpected() {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d sessions got a first frame within %v",
				g.firstFrames.Load(), g.framesExpected(), timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// flushAll pushes every connection's staged envelopes onto its socket.
func (g *generator) flushAll() error {
	for _, m := range g.conns {
		m.wmu.Lock()
		err := m.fw.Flush()
		m.wmu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *generator) sawFirst(s *genSession) {
	if !s.first.Swap(true) {
		g.firstFrames.Add(1)
	}
}

// writePoll stages a polling session's next step — a GPS fix every tenth
// step, one IMU sample, the frame request — and returns how many sensor
// events that was. The caller (the scheduler) holds the connection's write
// lock and flushes.
func (g *generator) writePoll(s *genSession) int64 {
	m := s.conn
	k := s.step
	s.step++
	st, ts := s.sc.at(k), stepTime(k)
	sent := int64(1)
	if k%gpsEverySteps == 0 {
		m.writeGPS(s.id, ts, st)
		sent++
	}
	m.writeIMU(s.id, ts, st)
	s.sentAt.Store(time.Now().UnixNano())
	s.reqSeq.Store(m.writeFrameRequest(s.id))
	return sent
}

// readLoop is a mux connection's reader: it demultiplexes by session, times
// and checks every frame, and for closed-loop sessions sends the next
// request. It ends when the connection closes.
func (g *generator) readLoop(m *muxConn, rec *recorder) {
	defer g.wg.Done()
	var env wire.Envelope
	for {
		if err := m.fr.ReadEnvelopeReuse(&env); err != nil {
			if !g.stopping.Load() {
				rec.violate("connection lost: %v", err)
			}
			return
		}
		now := time.Now()
		if env.Type == wire.MsgLoad {
			if sig, err := core.DecodeLoadSignal(env.Payload); err != nil {
				rec.violate("load signal: %v", err)
			} else if g.inWindow(now) {
				rec.backlog = append(rec.backlog, float64(sig.Backlog))
				if sig.FlushLatency > rec.flushP99 {
					rec.flushP99 = sig.FlushLatency
				}
			}
			continue
		}
		s := g.byID[env.Session]
		if s == nil {
			rec.violate("%v for unknown session %d", env.Type, env.Session)
			continue
		}
		switch env.Type {
		case wire.MsgAck: // subscribe acknowledged
		case wire.MsgAnnotations:
			g.onReply(s, &env, now, rec)
		case wire.MsgFramePush, wire.MsgFrameDelta:
			g.onPush(s, &env, now, rec)
		case wire.MsgError:
			g.onError(s, &env, now, rec)
		default:
			rec.violate("unexpected %v on session %d", env.Type, env.Session)
		}
	}
}

func (g *generator) onReply(s *genSession, env *wire.Envelope, now time.Time, rec *recorder) {
	// reqSeq before sentAt: clearing sentAt is what lets the scheduler send
	// (and renumber) the session's next request.
	want := s.reqSeq.Load()
	sent := s.sentAt.Swap(0)
	inWin := g.inWindow(now)
	f, err := core.DecodeFrame(env.Payload)
	switch {
	case err != nil:
		rec.violate("session %d: reply does not decode: %v", s.id, err)
	case env.Seq != want || env.Seq <= s.lastSeq:
		rec.violate("session %d: reply seq %d after %d, want %d", s.id, env.Seq, s.lastSeq, want)
	default:
		err = g.oracle.checkFrame(f)
		if err != nil {
			rec.violate("session %d: %v", s.id, err)
		}
	}
	s.lastSeq = env.Seq
	g.sawFirst(s)
	s.observeGap(now, rec, inWin)
	if inWin {
		rtt := time.Duration(now.UnixNano() - sent)
		rec.pollDone++
		if err == nil {
			rec.frames++
			rec.rttMS = append(rec.rttMS, float64(rtt)/1e6)
			if rtt <= pollLimit {
				rec.pollOnTime++
			}
		}
	}
}

func (g *generator) onError(s *genSession, env *wire.Envelope, now time.Time, rec *recorder) {
	inWin := g.inWindow(now)
	if env.Seq == s.reqSeq.Load() && s.sentAt.Swap(0) != 0 {
		// The outstanding frame request failed: a miss; the session is
		// idle again and polls at its next tick.
		if inWin {
			rec.pollDone++
			if strings.Contains(string(env.Payload), server.ErrFrameShed.Error()) {
				rec.sheds++
			} else {
				rec.errs++
			}
		}
		return
	}
	// Anything else the server rejected (a sensor event, a subscribe).
	rec.violate("session %d: server error: %s", s.id, env.Payload)
}

// onPush handles one pushed frame: seq continuity, delta reconstruction,
// keyframe cadence, the output oracle, and the inter-frame gap.
func (g *generator) onPush(s *genSession, env *wire.Envelope, now time.Time, rec *recorder) {
	inWin := g.inWindow(now)
	if env.Seq <= s.lastSeq {
		rec.violate("session %d: push seq %d after %d", s.id, env.Seq, s.lastSeq)
		return
	}
	if gap := env.Seq - s.lastSeq - 1; gap > 0 && s.lastSeq != 0 && inWin {
		rec.lost += int64(gap) // the server dropped or shed these pushes
	}
	contiguous := env.Seq == s.lastSeq+1
	s.lastSeq = env.Seq

	var f *core.DecodedFrame
	var err error
	switch {
	case env.Type == wire.MsgFramePush:
		f, err = core.DecodeFrame(env.Payload)
	case core.FrameDeltaIsKeyframe(env.Payload):
		f, err = core.ApplyFrameDelta(nil, env.Payload)
		s.sinceKey = 0
		if inWin {
			rec.keyframes++
		}
	case s.prev == nil || !contiguous:
		// A diff whose base was never delivered: ask for a keyframe, as
		// server.Client does, and count the push as lost.
		g.ack(s, wire.FrameAck{AppliedSeq: s.lastSeq, WantKeyframe: true})
		s.prev = nil
		if inWin {
			rec.lost++
		}
		return
	default:
		f, err = core.ApplyFrameDelta(s.prev, env.Payload)
		if s.sinceKey++; s.sinceKey >= 64 {
			rec.violate("session %d: %d delta pushes without a keyframe", s.id, s.sinceKey)
		}
	}
	if err == nil {
		err = g.oracle.checkFrame(f)
	}
	if err != nil {
		rec.violate("session %d: push %d: %v", s.id, env.Seq, err)
		s.prev = nil
		return
	}
	if env.Type == wire.MsgFrameDelta {
		s.prev = f
		if inWin {
			rec.deltaPushes++
		}
		if s.applied++; s.applied >= 8 { // server.Client's progress-ack cadence
			s.applied = 0
			g.ack(s, wire.FrameAck{AppliedSeq: env.Seq})
		}
	}
	g.sawFirst(s)
	gap, ok := s.observeGap(now, rec, inWin)
	if inWin {
		rec.frames++
		s.recv++
		if ok && float64(gap) <= streamGapLimit*float64(s.interval) {
			s.onTime++
		}
	}
}

// observeGap records the time since the session's previous frame and how
// much that gap changed from the one before (the raw tails behind
// on_time_share), for polled and pushed frames alike.
func (s *genSession) observeGap(now time.Time, rec *recorder, inWin bool) (time.Duration, bool) {
	last := s.lastAt
	s.lastAt = now
	if last.IsZero() {
		return 0, false
	}
	gap := now.Sub(last)
	if inWin {
		rec.gapMS = append(rec.gapMS, float64(gap)/1e6)
		if s.prevGap != 0 {
			rec.jitterMS = append(rec.jitterMS, math.Abs(float64(gap-s.prevGap))/1e6)
		}
	}
	s.prevGap = gap
	return gap, true
}

func (g *generator) ack(s *genSession, a wire.FrameAck) {
	m := s.conn
	m.wmu.Lock()
	m.writeAck(s.id, a)
	_ = m.fw.Flush()
	m.wmu.Unlock()
}

// runClient is one routed polling device: the public server.Client path
// (SendGPS / SendIMU / RequestFrame), one goroutine per connection.
func (g *generator) runClient(cl *server.Client, s *genSession, rec *recorder) {
	defer g.wg.Done()
	// A request per tick on an absolute schedule: a late wake-up is made up
	// by the following requests going out back to back, one outstanding.
	period := time.Duration(float64(time.Second) / g.w.PollHz)
	start := time.Now()
	for n := 0; !g.stopping.Load(); n++ {
		if wait := time.Until(start.Add(time.Duration(n) * period)); wait > 0 {
			time.Sleep(wait)
		}
		k := s.step
		s.step++
		st, ts := s.sc.at(k), stepTime(k)
		var err error
		if k%gpsEverySteps == 0 {
			err = cl.SendGPS(sensor.GPSFix{Time: ts, Position: geoPoint(st.Lat, st.Lon), AccuracyM: 5})
			g.eventsSent.Add(1)
		}
		if err == nil {
			err = cl.SendIMU(sensor.IMUSample{Time: ts, GyroZRad: st.Gyro, AccelMps2: st.Accel, CompassDeg: st.Compass})
			g.eventsSent.Add(1)
		}
		if err != nil {
			if !g.stopping.Load() {
				rec.violate("client %d: send: %v", s.id, err)
			}
			return
		}
		f, rtt, err := cl.RequestFrame()
		inWin := g.inWindow(time.Now())
		switch {
		case err == nil:
			if err = g.oracle.checkFrame(f); err != nil {
				rec.violate("client %d: %v", s.id, err)
			}
		case errors.Is(err, server.ErrClientClosed):
			if !g.stopping.Load() {
				rec.violate("client %d: %v", s.id, err)
			}
			return
		case strings.Contains(err.Error(), server.ErrFrameShed.Error()):
			if inWin {
				rec.sheds++
			}
		default:
			if inWin {
				rec.errs++
			}
		}
		g.sawFirst(s)
		if err == nil {
			s.observeGap(time.Now(), rec, inWin)
		}
		if inWin {
			rec.pollDone++
			if err == nil {
				rec.frames++
				rec.rttMS = append(rec.rttMS, float64(rtt)/1e6)
				if rtt <= pollLimit {
					rec.pollOnTime++
				}
			}
		}
	}
}

// pacer is a fixed-rate schedule: event n is due at start + n·period.
type pacer struct {
	start  time.Time
	period time.Duration
	n      int64
}

func (p *pacer) due() time.Time { return p.start.Add(time.Duration(p.n) * p.period) }

// startSchedule launches the scheduler goroutine: the single source of every
// open-loop send (sensor flood, stream sessions' sensors, the interaction
// schedule, probe requests). Each send is timed from when it was due.
func (g *generator) startSchedule() {
	g.scheduling = true
	go func() {
		defer close(g.schedDone)
		g.runSchedule()
	}()
}

func (g *generator) runSchedule() {
	w := g.w
	start := time.Now().Add(time.Millisecond)
	// polls, streams and floods take turns within their group; interactions
	// ride the frame-receiving sessions when there is no flood.
	var polls, streams, floods, carriers []*genSession
	for _, s := range g.sessions {
		switch s.role {
		case rolePoll:
			if !w.Routed { // routed clients poll from their own goroutines
				polls = append(polls, s)
			}
		case roleStream:
			streams = append(streams, s)
		case roleFlood:
			floods = append(floods, s)
		}
		if s.role != roleFlood {
			carriers = append(carriers, s)
		}
	}
	var flood, gaze, sensors, poll, probe pacer
	if w.FloodRate > 0 {
		flood = pacer{start: start, period: time.Second / time.Duration(w.FloodRate)}
	}
	if w.GazeRate > 0 {
		gaze = pacer{start: start, period: time.Second / time.Duration(w.GazeRate)}
	}
	if len(streams) > 0 {
		// Sessions take turns, evenly phased across one push interval.
		sensors = pacer{start: start, period: w.StreamInterval / time.Duration(len(streams))}
	}
	if len(polls) > 0 {
		// Sessions take turns, evenly phased across one polling period.
		poll = pacer{start: start, period: time.Duration(float64(time.Second) / w.PollHz / float64(len(polls)))}
	}
	if g.probe != nil {
		probe = pacer{start: start, period: probePeriod}
	}
	// Connections written to in one wake-up stay locked until its flush.
	touched := make(map[*muxConn]bool, 2)
	lock := func(m *muxConn) {
		if !touched[m] {
			touched[m] = true
			m.wmu.Lock()
		}
	}
	// tick polls one session: a frame is due; it is requested unless the
	// previous request is still outstanding a whole period later, which
	// counts as a miss.
	tick := func(s *genSession, inWin bool) int64 {
		if s.sentAt.Load() != 0 {
			if inWin {
				g.pollMissed++
			}
			return 0
		}
		lock(s.conn)
		return g.writePoll(s)
	}
	for !g.stopping.Load() {
		now := time.Now()
		inWin := g.inWindow(now)
		sent := int64(0)
		late := func(due time.Time) {
			if inWin {
				g.lagMS = append(g.lagMS, float32(now.Sub(due))/1e6)
			}
		}
		for flood.period > 0 && !flood.due().After(now) {
			due, n := flood.due(), flood.n
			flood.n++
			s := floods[n%int64(len(floods))]
			lock(s.conn)
			switch g.sc.Pattern[n%int64(len(g.sc.Pattern))] {
			case evIMU:
				s.conn.writeIMU(s.id, stepTime(s.step), s.sc.at(s.step))
				s.step++
			case evGPS:
				s.conn.writeGPS(s.id, stepTime(s.step), s.sc.at(s.step))
			case evGaze:
				g.writeInteraction(s.conn, nil, s.id, s.step, now)
			}
			sent++
			late(due)
		}
		for gaze.period > 0 && !gaze.due().After(now) {
			due, n := gaze.due(), gaze.n
			gaze.n++
			if w.Routed {
				g.writeInteraction(nil, g.clients[n%int64(len(g.clients))], 0, int(n), now)
			} else {
				s := carriers[n%int64(len(carriers))]
				lock(s.conn)
				g.writeInteraction(s.conn, nil, s.id, int(n), now)
			}
			sent++
			late(due)
		}
		for sensors.period > 0 && !sensors.due().After(now) {
			due, n := sensors.due(), sensors.n
			sensors.n++
			s := streams[n%int64(len(streams))]
			lock(s.conn)
			if s.step%gpsEverySteps == 0 {
				s.conn.writeGPS(s.id, stepTime(s.step), s.sc.at(s.step))
				sent++
			}
			s.conn.writeIMU(s.id, stepTime(s.step), s.sc.at(s.step))
			s.step++
			sent++
			late(due)
		}
		for poll.period > 0 && !poll.due().After(now) {
			due, n := poll.due(), poll.n
			poll.n++
			sent += tick(polls[n%int64(len(polls))], inWin)
			late(due)
		}
		for probe.period > 0 && !probe.due().After(now) {
			due := probe.due()
			probe.n++
			sent += tick(g.probe, inWin)
			late(due)
		}
		for m := range touched {
			if err := m.fw.Flush(); err != nil && !g.stopping.Load() {
				g.sched.violate("open-loop send: %v", err)
			}
			m.wmu.Unlock()
			delete(touched, m)
		}
		g.eventsSent.Add(sent)

		// One wake-up per millisecond batches the flood (~50 events) into
		// one write and still keeps every send well inside the 5 ms budget.
		time.Sleep(time.Until(now.Add(time.Millisecond)))
	}
}

// writeInteraction sends the next gaze dwell (long enough to become one
// interaction record) and logs when, for the staleness measurement: the age
// of the analytics context counts from the actual send, so that a generator
// that ran late does not read as a stale server.
func (g *generator) writeInteraction(m *muxConn, cl *server.Client, session uint64, k int, now time.Time) {
	n := len(g.sentAt)
	target := g.sc.Targets[n%len(g.sc.Targets)]
	dwell := 1500 + float64(n%8)*100
	g.sentAt = append(g.sentAt, now.UnixNano())
	if cl != nil {
		if err := cl.SendGaze(sensor.GazeSample{Time: stepTime(k), TargetID: target, DwellMS: dwell}); err != nil && !g.stopping.Load() {
			g.sched.violate("open-loop send: %v", err)
		}
		return
	}
	m.writeGaze(session, stepTime(k), target, dwell)
}

// quiesce stops new sends and waits for the scheduler and for outstanding
// replies. Idempotent; afterwards sentAt and lagMS are safe to read.
func (g *generator) quiesce() {
	g.stopping.Store(true)
	if g.scheduling {
		<-g.schedDone
	}
	deadline := time.Now().Add(2 * time.Second)
	for _, s := range g.sessions {
		for s.sentAt.Load() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
}

// close quiesces, tears the connections down and waits for every generator
// goroutine. Idempotent.
func (g *generator) close() {
	g.quiesce()
	for _, m := range g.conns {
		m.c.Close()
	}
	for _, cl := range g.clients {
		cl.Close()
	}
	g.wg.Wait()
}

// merged folds every goroutine's recorder into one; call after close.
func (g *generator) merged() *recorder {
	rec := &recorder{}
	for _, r := range g.recs {
		rec.merge(r)
	}
	rec.merge(&g.sched)
	return rec
}
