// The frame-serving engine and the listener plumbing the session-serving
// connection loop (conn.go) and the Router share.
package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/obs"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

// Engine bundles what every frame-serving role shares: the platform, the
// bounded frame scheduler, and the pooled response-encode buffers. It has
// no listener — the connection loop calls into the engine per envelope.
type Engine struct {
	platform *core.Platform
	sched    *FrameScheduler
	// pacer is the shared pacing clock for every subscription stream the
	// engine serves: one goroutine regardless of subscriber count.
	pacer *pacer
	// rec is the frame flight recorder: every frame's stage spans — polled
	// or streamed (admission, queue, render, encode, outbox, write) — land
	// in its ring, always on. Its instruments live in the platform registry.
	rec *obs.Recorder
	// The stream counters, resolved here so no subscribe or connection
	// pays a registry lookup. streamDropped counts pushes shed by
	// connection outboxes.
	streamPushes, streamSkipped, streamSheds, streamRenderErrs, streamKeyframes, streamDropped *metrics.Counter
	// streams registers every live subscription stream under the outbox
	// it pushes on and its session. Subscribe, unsubscribe, acks, the
	// outbox drop hook, migration export, teardown and the introspection
	// plane's /debug/arbd/streams all go through it, and taking a stream
	// out of it (stopStream, stopStreams) is the one way a stream stops.
	streamsMu sync.Mutex
	streams   map[streamKey]*frameStream
	// bufs pools frame-response encode buffers: a frame is encoded once
	// into a pooled wire.Buffer handed to the framed writer, then the
	// buffer returns to the pool — no per-response allocations.
	bufs sync.Pool
	// deliveries pools the staging state polled frames borrow (delivery).
	deliveries sync.Pool
}

// newEngine builds an engine over the platform whose scheduler runs workers
// renderers (zero: GOMAXPROCS), sheds at the 250 ms deadline and admits
// lag-aware: frames shed earlier when the analytics plane falls behind the
// devices feeding it.
func newEngine(p *core.Platform, workers int) *Engine {
	sched := SchedulerConfig{workers: workers, deadline: defaultFrameDeadline, load: p.LoadSignal}
	reg := p.Metrics()
	e := &Engine{
		platform: p,
		sched:    NewFrameScheduler(sched, reg),
		rec:      obs.NewRecorder(reg),
		streams:  make(map[streamKey]*frameStream),

		streamPushes:     reg.Counter("server.stream.pushes"),
		streamSkipped:    reg.Counter("server.stream.skipped"),
		streamSheds:      reg.Counter("server.stream.shed"),
		streamRenderErrs: reg.Counter("server.stream.render_errors"),
		streamKeyframes:  reg.Counter("server.stream.keyframes"),
		streamDropped:    reg.Counter("server.stream.dropped"),
	}
	e.pacer = newPacer(reg.Gauge("server.stream.pacers"))
	e.bufs.New = func() any { return wire.NewBuffer(1024) }
	e.deliveries.New = newDelivery
	return e
}

// Close stops the pacer and the frame scheduler. Roles close their
// listeners (and stop their streams) first.
func (e *Engine) Close() {
	e.pacer.close()
	e.sched.Close()
}

// encodeFrame is the visit half every delivered frame shares, run under the
// session lock right after the render: the window since the flight's last
// mark spans queue wait plus render and is split by the render's own
// duration (f.Elapsed); then f is encoded into a pooled buffer and reply
// filled as a t envelope for (session, seq) — the full frame for
// MsgAnnotations and MsgFramePush; for MsgFrameDelta a diff against the
// session's previous frame, or a full keyframe body when keyframe is set
// (or the frame has no previous layout). The returned buffer backs
// reply.Payload and goes back to e.bufs once the outbox is done with it.
//
//arbd:hotpath
func (e *Engine) encodeFrame(fl *obs.Flight, reply *wire.Envelope, t wire.MsgType, session, seq uint64, f *core.Frame, keyframe bool) *wire.Buffer {
	fl.SetSeq(seq)
	fl.MarkSplit(obs.StageQueue, obs.StageRender, f.Elapsed)
	buf := e.bufs.Get().(*wire.Buffer)
	buf.Reset()
	if t == wire.MsgFrameDelta {
		core.EncodeFrameDeltaInto(buf, f, keyframe)
	} else {
		core.EncodeFrameInto(buf, f)
	}
	*reply = wire.Envelope{Type: t, Seq: seq, Session: session, Payload: buf.Bytes()}
	fl.Mark(obs.StageEncode)
	return buf
}

// connServer owns a role's accept loop and connection lifecycle; every
// connection runs serve (conn.go), and roles plug in open. name labels this
// side in hello replies and logs. Close is idempotent: it stops accepting,
// closes live connections, and waits for handlers to drain.
type connServer struct {
	ln     net.Listener
	logger *log.Logger
	name   string
	open   func(conn net.Conn, proto uint32) accepted

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

func newConnServer(logger *log.Logger, name string, open func(conn net.Conn, proto uint32) accepted) *connServer {
	if logger == nil {
		logger = log.Default()
	}
	return &connServer{
		logger: logger,
		name:   name,
		open:   open,
		conns:  make(map[net.Conn]struct{}),
		done:   make(chan struct{}),
	}
}

// listen binds addr and starts accepting connections, returning the bound
// address (useful with ":0").
func (cs *connServer) listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("server: listen: %w", err)
	}
	cs.ln = ln
	cs.wg.Add(1)
	go cs.acceptLoop()
	return ln.Addr().String(), nil
}

func (cs *connServer) acceptLoop() {
	defer cs.wg.Done()
	for {
		conn, err := cs.ln.Accept()
		if err != nil {
			select {
			case <-cs.done:
				return
			default:
				cs.logger.Printf("server: accept: %v", err)
				return
			}
		}
		// Register before serving, then re-check shutdown: Close may have
		// swept the conn map between Accept returning and this registration,
		// in which case nobody else will ever close this conn and its
		// handler would block forever.
		cs.mu.Lock()
		cs.conns[conn] = struct{}{}
		cs.mu.Unlock()
		select {
		case <-cs.done:
			_ = conn.Close()
			continue
		default:
		}
		cs.wg.Add(1)
		go func() {
			defer cs.wg.Done()
			defer func() {
				cs.mu.Lock()
				delete(cs.conns, conn)
				cs.mu.Unlock()
				_ = conn.Close()
			}()
			cs.serve(conn)
		}()
	}
}

// close stops accepting, closes live connections, and waits for handlers.
func (cs *connServer) close() error {
	var err error
	cs.closeOnce.Do(func() {
		close(cs.done)
		if cs.ln != nil {
			err = cs.ln.Close()
		}
		cs.mu.Lock()
		for c := range cs.conns {
			_ = c.Close()
		}
		cs.mu.Unlock()
		cs.wg.Wait()
	})
	return err
}

func applySensor(sess *core.Session, payload []byte) error {
	if len(payload) < 1 {
		return errors.New("server: empty sensor payload")
	}
	r := wire.NewReader(payload[1:])
	ns, err := r.Uvarint()
	if err != nil {
		return r.Err(err, "timestamp")
	}
	ts := time.Unix(0, int64(ns))
	switch payload[0] {
	case SensorGPS:
		lat, err1 := r.Float64()
		lon, err2 := r.Float64()
		acc, err3 := r.Float64()
		if err1 != nil || err2 != nil || err3 != nil {
			return errors.New("server: truncated gps payload")
		}
		return sess.OnGPS(sensor.GPSFix{Time: ts, Position: geo.Point{Lat: lat, Lon: lon}, AccuracyM: acc})
	case SensorIMU:
		gyro, err1 := r.Float64()
		accel, err2 := r.Float64()
		compass, err3 := r.Float64()
		if err1 != nil || err2 != nil || err3 != nil {
			return errors.New("server: truncated imu payload")
		}
		sess.OnIMU(sensor.IMUSample{Time: ts, GyroZRad: gyro, AccelMps2: accel, CompassDeg: compass})
		return nil
	case SensorGaze:
		target, err1 := r.Uvarint()
		dwell, err2 := r.Float64()
		if err1 != nil || err2 != nil {
			return errors.New("server: truncated gaze payload")
		}
		return sess.OnGaze(sensor.GazeSample{Time: ts, TargetID: target, DwellMS: dwell})
	default:
		return fmt.Errorf("server: unknown sensor kind %d", payload[0])
	}
}
