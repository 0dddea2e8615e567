package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

// Client errors.
var (
	// ErrClientClosed is returned for calls made after Close, and is the
	// terminal error all in-flight waiters observe when the connection
	// dies without a more specific cause.
	ErrClientClosed = errors.New("client: closed")
	// ErrAlreadySubscribed is returned by Subscribe while a frame
	// subscription is active: a connection carries one session, and one
	// session has one frame clock. Re-tune cadence by unsubscribing first.
	ErrAlreadySubscribed = errors.New("client: already subscribed")
)

// corePoint builds a geo.Point (helper shared with the server side).
func corePoint(lat, lon float64) geo.Point { return geo.Point{Lat: lat, Lon: lon} }

// DialOptions tunes the connection handshake.
type DialOptions struct {
	// MaxProto caps the version the client announces (default
	// wire.ProtoMax). Benchmarks pin older versions here to compare wire
	// formats — a v3-capped client subscribes without the delta flag and
	// keeps receiving full MsgFramePush frames.
	MaxProto uint32
	// Name labels the client in the server's logs (default "client").
	Name string
}

// SubscribeOptions tunes a frame subscription. The server bounds the
// connection's push queue at 8 frames and drops the oldest when it is full;
// the local channel holds as many, and when the consumer falls behind the
// oldest buffered frame is evicted to make room and counted (PushesDropped)
// — so a stalled consumer resumes on the freshest frames and a slow reader
// costs itself, never anyone else.
type SubscribeOptions struct {
	// Interval is the target push cadence (default 33 ms ≈ 30 Hz; floor
	// 1 ms). The server treats it as a ceiling and degrades under load.
	Interval time.Duration
}

// Client is a concurrency-safe protocol client: the load generator,
// examples, benchmarks, and the public arbd package all speak through it.
// One goroutine owns the read side of the connection and demultiplexes —
// request/reply traffic is matched to callers by sequence number, pushed
// frames flow to the subscription channel — so any number of goroutines
// may send sensors, request frames, and consume a stream concurrently.
type Client struct {
	conn net.Conn
	fr   *wire.FrameReader

	wmu sync.Mutex // guards fw and buf
	fw  *wire.FrameWriter
	buf wire.Buffer // reusable payload encode buffer

	seq atomic.Uint64

	proto      uint32 // negotiated protocol version
	sessionID  uint64 // session the server assigned
	pushesDrop atomic.Int64

	mu      sync.Mutex
	pending map[uint64]chan *wire.Envelope
	sub     *clientSub
	lastSub error // why the last subscription ended, if abnormally
	err     error // terminal connection error
	done    chan struct{}

	// subLifecycle serialises unsubscribe round-trips against each other
	// and against new Subscribes: without it, a straggling unsubscribe
	// (a ctx watcher racing an explicit Unsubscribe) could hit the wire
	// after a newer Subscribe and silently stop the new stream.
	subLifecycle sync.Mutex
}

// clientSub is one active frame subscription. Its mutex orders the demux
// goroutine's sends against the channel close — the close may come from
// Unsubscribe on any goroutine.
type clientSub struct {
	mu     sync.Mutex
	ch     chan *core.DecodedFrame
	closed bool
	// stop closes when the subscription ends, releasing its ctx watcher.
	stop chan struct{}

	// Delta reconstruction state (protocol v4; demux goroutine only).
	// prev is the last reconstructed frame — it doubles as the consumer's
	// delivered frame, so streamed frames must be treated as read-only —
	// and prevSeq is its wire seq; a delta applies only to the push
	// immediately after it. needKey latches after a gap or a corrupt
	// delta: pushes drop (and one resync ack goes out) until the next
	// keyframe. applied counts pushes since the last progress ack.
	prev    *core.DecodedFrame
	prevSeq uint64
	needKey bool
	nkDrops int
	applied int
}

// ackEvery is the progress-ack cadence: one lightweight MsgAck per this
// many applied pushes keeps the server's view of the stream fresh without
// measurable upstream traffic.
const ackEvery = 8

func (s *clientSub) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.ch)
		close(s.stop)
	}
}

// deliver hands a frame to the consumer without blocking; it reports false
// when an older frame was evicted to make room (the consumer is behind).
// Eviction is drop-oldest, matching the server's outbox policy: a stalled
// consumer that wakes up reads the freshest frames, not second-old ones.
// Frames arriving after the close are discarded silently (stream over).
func (s *clientSub) deliver(f *core.DecodedFrame) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return true
	}
	select {
	case s.ch <- f:
		return true
	default:
	}
	// Buffer full: evict the oldest queued frame, then retry — the retry
	// can only fail if the consumer raced in and drained the channel, in
	// which case the send below succeeds instead.
	select {
	case <-s.ch:
	default:
	}
	select {
	case s.ch <- f:
	default:
	}
	return false
}

// Dial connects to an arbd server (standalone or router) and runs the
// protocol handshake at the default options.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr, DialOptions{})
}

// DialContext connects with a context governing the dial and handshake.
func DialContext(ctx context.Context, addr string, opts DialOptions) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial: %w", err)
	}
	return NewClient(ctx, conn, opts)
}

// NewClient wraps an established connection (tests and benchmarks inject
// byte-counting conns here), runs the hello handshake, and starts the
// reader. The client owns conn from this point, success or failure.
func NewClient(ctx context.Context, conn net.Conn, opts DialOptions) (*Client, error) {
	if opts.MaxProto == 0 {
		opts.MaxProto = wire.ProtoMax
	}
	if opts.Name == "" {
		opts.Name = "client"
	}
	c := &Client{
		conn:    conn,
		fr:      wire.NewFrameReader(conn),
		fw:      wire.NewFrameWriter(conn),
		pending: make(map[uint64]chan *wire.Envelope),
		done:    make(chan struct{}),
	}
	// The dialer's hello, under the context's deadline. It runs before the
	// reader goroutine exists, so it reads the connection directly; a server
	// speaking no version this client can fails it with a *wire.VersionError.
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	peer, proto, err := dialHello(c.fr, c.fw, opts.Name, opts.MaxProto)
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	c.proto, c.sessionID = proto, peer.ID
	go c.readLoop()
	return c, nil
}

// Proto returns the negotiated protocol version.
func (c *Client) Proto() uint32 { return c.proto }

// SessionID returns the session the server assigned this connection.
func (c *Client) SessionID() uint64 { return c.sessionID }

// PushesDropped counts frames discarded locally because the subscription
// consumer fell behind its channel buffer.
func (c *Client) PushesDropped() int64 { return c.pushesDrop.Load() }

// Close tears down the connection and unblocks every waiter: in-flight
// round-trips fail with the terminal error and an active subscription's
// channel closes.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.done // reader observed the close and failed all waiters
	return err
}

// fail records the terminal error and unblocks everything exactly once.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pend := c.pending
	c.pending = nil
	sub := c.sub
	c.sub = nil
	if sub != nil && c.lastSub == nil {
		c.lastSub = c.err
	}
	c.mu.Unlock()
	for _, ch := range pend {
		close(ch) // a closed reply channel means "terminal error, see c.err"
	}
	if sub != nil {
		sub.finish()
	}
	close(c.done)
}

// readLoop owns the connection's read side: pushes to the subscription,
// everything else matched to its caller by sequence number.
func (c *Client) readLoop() {
	for {
		env, err := c.fr.ReadEnvelope() // payload copied: handed across goroutines
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrClientClosed, err))
			return
		}
		switch {
		case env.Type == wire.MsgFramePush, env.Type == wire.MsgFrameDelta:
			c.deliverPush(env)
		case env.Type == wire.MsgError && env.Seq == 0:
			// Seq 0 is never a reply: it is the server's stream obituary
			// (a shard died past its reconnect budget, say). The stream
			// ends; request/reply keeps working.
			c.endSub(fmt.Errorf("client: stream ended by server: %s", env.Payload))
		default:
			c.mu.Lock()
			ch := c.pending[env.Seq]
			delete(c.pending, env.Seq)
			c.mu.Unlock()
			if ch != nil {
				ch <- env // buffered; never blocks
			}
			// Unmatched envelopes (acks for router-replayed subscribes,
			// replies that lost their waiter to a context) are dropped.
		}
	}
}

func (c *Client) deliverPush(env *wire.Envelope) {
	c.mu.Lock()
	sub := c.sub
	c.mu.Unlock()
	if sub == nil {
		return // push raced an unsubscribe: drop
	}
	var f *core.DecodedFrame
	var err error
	switch {
	case env.Type == wire.MsgFramePush:
		f, err = core.DecodeFrame(env.Payload)
	case len(env.Payload) > 0 && core.FrameDeltaIsKeyframe(env.Payload):
		// A keyframe always applies — it is a full frame, and it clears
		// any pending resync.
		f, err = core.ApplyFrameDelta(nil, env.Payload)
	case sub.prev == nil || sub.needKey || env.Seq != sub.prevSeq+1:
		// Delta against a base we don't hold: a push was dropped somewhere
		// on the path (drop-oldest outbox, slow local consumer of the wire)
		// or an earlier delta was corrupt. Ask for one keyframe and drop
		// deltas until it arrives.
		sub.requestKeyframe(c)
		return
	default:
		f, err = core.ApplyFrameDelta(sub.prev, env.Payload)
	}
	if err != nil || f == nil {
		// Corrupt push: drop rather than kill the stream. A corrupt delta
		// additionally poisons the base, so resync.
		if env.Type == wire.MsgFrameDelta {
			sub.requestKeyframe(c)
		}
		return
	}
	if env.Type == wire.MsgFrameDelta {
		sub.prev, sub.prevSeq = f, env.Seq
		sub.needKey = false
		sub.applied++
		if sub.applied >= ackEvery {
			sub.applied = 0
			c.sendAck(wire.FrameAck{AppliedSeq: env.Seq})
		}
	}
	// The wire seq is the channel's Seq: strictly increasing for the life of
	// the subscription, through shard bounces and migrations too — a router
	// rebases the restarted server-side counter before the push gets here.
	f.Seq = env.Seq
	if !sub.deliver(f) {
		c.pushesDrop.Add(1)
	}
}

// requestKeyframe sends one WantKeyframe ack per gap: the first
// undecodable delta asks, subsequent ones wait for the keyframe already
// requested. The requested keyframe can itself be shed by a drop-oldest
// outbox on the return path, so the latch re-asks every few discarded
// deltas rather than waiting out the server's keyframe cadence.
func (s *clientSub) requestKeyframe(c *Client) {
	if s.needKey {
		s.nkDrops++
		if s.nkDrops < ackEvery {
			return
		}
	}
	s.needKey = true
	s.nkDrops = 0
	c.sendAck(wire.FrameAck{AppliedSeq: s.prevSeq, WantKeyframe: true})
}

// sendAck fire-and-forgets a frame-ack (protocol v4). Errors are ignored:
// an ack lost to a dying connection is moot, and the read loop will learn
// of the death first.
func (c *Client) sendAck(a wire.FrameAck) {
	_ = c.send(wire.MsgAck, func(b *wire.Buffer) { wire.EncodeFrameAckInto(b, a) })
}

// endSub closes the active subscription, recording why. Without an active
// subscription it is a no-op, so a late obituary cannot clobber the cause
// an earlier teardown recorded.
func (c *Client) endSub(cause error) {
	c.mu.Lock()
	sub := c.sub
	if sub != nil {
		c.sub = nil
		c.lastSub = cause
	}
	c.mu.Unlock()
	if sub != nil {
		sub.finish()
	}
}

// endSubIf is endSub scoped to one specific subscription: a stale caller
// (an old context watcher, a late Unsubscribe) cannot tear down a newer
// stream that replaced the one it knew about.
func (c *Client) endSubIf(cs *clientSub, cause error) {
	c.mu.Lock()
	if c.sub != cs {
		c.mu.Unlock()
		return
	}
	c.sub = nil
	c.lastSub = cause
	c.mu.Unlock()
	cs.finish()
}

// StreamErr reports why the last subscription ended: nil after a clean
// Unsubscribe, the server's reason otherwise. Valid once the subscription
// channel has closed.
func (c *Client) StreamErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastSub
}

// writeEnvelope frames, writes and flushes one envelope (any goroutine).
func (c *Client) writeEnvelope(env *wire.Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return sendEnvelope(c.fw, env)
}

// send writes a fire-and-forget envelope built by fill (which encodes the
// payload into the client's reusable buffer under the write lock).
func (c *Client) send(t wire.MsgType, fill func(b *wire.Buffer)) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.buf.Reset()
	if fill != nil {
		fill(&c.buf)
	}
	return sendEnvelope(c.fw, &wire.Envelope{Type: t, Seq: c.seq.Add(1), Payload: c.buf.Bytes()})
}

// roundTrip sends one request and blocks for the reply carrying its exact
// sequence number — an interleaved reply to some other request can never
// be mistaken for this one. It unblocks on reply, context cancellation,
// or connection death, whichever first.
func (c *Client) roundTrip(ctx context.Context, t wire.MsgType, payload []byte) (*wire.Envelope, error) {
	seq := c.seq.Add(1)
	ch := make(chan *wire.Envelope, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.pending[seq] = ch
	c.mu.Unlock()

	if err := c.writeEnvelope(&wire.Envelope{Type: t, Seq: seq, Payload: payload}); err != nil {
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, err
	}
	select {
	case env, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return nil, err
		}
		if env.Type == wire.MsgError {
			return nil, fmt.Errorf("client: server error: %s", env.Payload)
		}
		return env, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, seq)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// SendGPS streams a GPS fix (no reply expected).
func (c *Client) SendGPS(fix sensor.GPSFix) error {
	return c.send(wire.MsgSensorEvent, func(b *wire.Buffer) {
		b.Byte(SensorGPS)
		b.Uvarint(uint64(fix.Time.UnixNano()))
		b.Float64(fix.Position.Lat)
		b.Float64(fix.Position.Lon)
		b.Float64(fix.AccuracyM)
	})
}

// SendIMU streams an inertial sample.
func (c *Client) SendIMU(s sensor.IMUSample) error {
	return c.send(wire.MsgSensorEvent, func(b *wire.Buffer) {
		b.Byte(SensorIMU)
		b.Uvarint(uint64(s.Time.UnixNano()))
		b.Float64(s.GyroZRad)
		b.Float64(s.AccelMps2)
		b.Float64(s.CompassDeg)
	})
}

// SendGaze streams a gaze sample.
func (c *Client) SendGaze(s sensor.GazeSample) error {
	return c.send(wire.MsgSensorEvent, func(b *wire.Buffer) {
		b.Byte(SensorGaze)
		b.Uvarint(uint64(s.Time.UnixNano()))
		b.Uvarint(s.TargetID)
		b.Float64(s.DwellMS)
	})
}

// RequestFrame asks for the current overlay and blocks for the reply —
// the polling path, for one-shot uses and clients that own their frame
// clock.
func (c *Client) RequestFrame() (*core.DecodedFrame, time.Duration, error) {
	return c.RequestFrameContext(context.Background())
}

// RequestFrameContext is RequestFrame bounded by a context.
func (c *Client) RequestFrameContext(ctx context.Context) (*core.DecodedFrame, time.Duration, error) {
	start := time.Now()
	env, err := c.roundTrip(ctx, wire.MsgFrameRequest, nil)
	if err != nil {
		return nil, 0, err
	}
	if env.Type != wire.MsgAnnotations {
		return nil, 0, fmt.Errorf("client: expected annotations, got %v", env.Type)
	}
	f, err := core.DecodeFrame(env.Payload)
	return f, time.Since(start), err
}

// Ping round-trips a control message (connectivity check).
func (c *Client) Ping() error { return c.PingContext(context.Background()) }

// PingContext is Ping bounded by a context.
func (c *Client) PingContext(ctx context.Context) error {
	env, err := c.roundTrip(ctx, wire.MsgControl, nil)
	if err != nil {
		return err
	}
	if env.Type != wire.MsgAck {
		return fmt.Errorf("client: expected ack, got %v", env.Type)
	}
	return nil
}

// Subscribe switches the session to server-pushed frames: the server owns
// the frame clock from here and the returned channel yields decoded frames
// until Unsubscribe, context cancellation, or connection close — after
// which StreamErr reports why.
func (c *Client) Subscribe(ctx context.Context, opts SubscribeOptions) (<-chan *core.DecodedFrame, error) {
	// Reject an out-of-range interval instead of truncating it into a
	// different cadence — the codec enforces the same rule on decode.
	const maxU32 = 1<<32 - 1
	sub := wire.Subscribe{}
	if c.proto >= wire.ProtoV4 {
		// Negotiated delta pushes: the server diffs consecutive frames and
		// deliverPush reconstructs — transparent to the channel's consumer.
		sub.Flags = wire.SubFlagDelta
	}
	if opts.Interval > 0 {
		ms := opts.Interval.Milliseconds()
		if ms < 1 {
			ms = 1
		}
		if ms > maxU32 {
			return nil, fmt.Errorf("client: subscribe interval %v overflows the wire field", opts.Interval)
		}
		sub.IntervalMS = uint32(ms)
	}

	cs := &clientSub{ch: make(chan *core.DecodedFrame, defaultPushBudget), stop: make(chan struct{})}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	if c.sub != nil {
		c.mu.Unlock()
		return nil, ErrAlreadySubscribed
	}
	// Register before the ack round-trip: the first push may beat the ack
	// through the demux and must not be dropped.
	c.sub = cs
	c.lastSub = nil
	c.mu.Unlock()

	var payload wire.Buffer
	wire.EncodeSubscribeInto(&payload, sub)
	env, err := c.roundTrip(ctx, wire.MsgSubscribe, payload.Bytes())
	if err == nil && env.Type != wire.MsgAck {
		err = fmt.Errorf("client: expected subscribe ack, got %v", env.Type)
	}
	if err != nil {
		// The subscribe may already be on the wire with the server
		// streaming toward us (the wait gave up, not the server): send a
		// best-effort unsubscribe so an unobserved stream doesn't burn
		// scheduler slots for the life of the connection. Its ack is
		// unmatched and dropped by the demux.
		_ = c.writeEnvelope(&wire.Envelope{Type: wire.MsgUnsubscribe, Seq: c.seq.Add(1)})
		c.endSubIf(cs, err)
		return nil, err
	}
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				_ = c.unsubscribe(cs)
			case <-cs.stop: // subscription already over: watcher retires
			case <-c.done:
			}
		}()
	}
	return cs.ch, nil
}

// Unsubscribe ends the active subscription cleanly: the server stops the
// stream, and once the server acks, the subscription channel closes. A
// second Unsubscribe is a no-op.
func (c *Client) Unsubscribe() error {
	c.mu.Lock()
	sub := c.sub
	c.mu.Unlock()
	if sub == nil {
		return nil
	}
	return c.unsubscribe(sub)
}

// unsubscribe ends one specific subscription. A caller holding a stale
// handle (replaced by a newer Subscribe) is a no-op — it must not send an
// unsubscribe that would kill the newer server-side stream. subLifecycle
// makes the active-check and the wire round-trip atomic against other
// unsubscribers and against Subscribe, so two racing teardowns of the
// same stream collapse into one wire message.
func (c *Client) unsubscribe(cs *clientSub) error {
	c.subLifecycle.Lock()
	defer c.subLifecycle.Unlock()
	c.mu.Lock()
	active := c.sub == cs
	c.mu.Unlock()
	if !active {
		return nil
	}
	_, err := c.roundTrip(context.Background(), wire.MsgUnsubscribe, nil)
	// Clean or not, the stream is over locally: late pushes are dropped.
	c.endSubIf(cs, nil)
	return err
}
