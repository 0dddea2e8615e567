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

// DialOptions tunes the connection handshake.
type DialOptions struct {
	// MaxProto caps the version the client announces (default
	// wire.ProtoMax). arbd-loadgen -max-proto pins an older version here to
	// compare wire formats — a v3-capped client subscribes without the
	// delta flag and keeps receiving full MsgFramePush frames.
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
// It runs the dial side's read loop and outbox (dial.go): one goroutine
// demultiplexes what the server sends — replies settle their round trips
// by sequence number, pushed frames flow to the subscription channel — and
// one writes what callers queue, in call order. So any number of goroutines
// may send sensors, request frames, and consume a stream concurrently, and
// a context bounds every call even when the server stops reading.
type Client struct {
	*dialConn
	bufs       sync.Pool // one-way payloads, held until written
	pushesDrop atomic.Int64

	mu      sync.Mutex
	sub     *clientSub
	lastSub error // why the last subscription ended, if abnormally

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
// byte-counting conns here), runs the hello handshake under the context's
// deadline, and starts the reader. The client owns conn from this point,
// success or failure. A server speaking no version this client can fails
// the handshake with a *wire.VersionError.
func NewClient(ctx context.Context, conn net.Conn, opts DialOptions) (*Client, error) {
	if opts.MaxProto == 0 {
		opts.MaxProto = wire.ProtoMax
	}
	if opts.Name == "" {
		opts.Name = "client"
	}
	deadline, _ := ctx.Deadline()
	dc, err := dialHandshake(conn, conn, deadline, opts.Name, opts.MaxProto)
	if err != nil {
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	c := &Client{dialConn: dc}
	c.bufs.New = func() any { return new(wire.Buffer) }
	c.start(c.deliver, func() { c.endSub(nil, c.err) })
	return c, nil
}

// Proto returns the negotiated protocol version.
func (c *Client) Proto() uint32 { return c.proto }

// SessionID returns the session the server assigned this connection.
func (c *Client) SessionID() uint64 { return c.peer.ID }

// PushesDropped counts frames discarded locally because the subscription
// consumer fell behind its channel buffer.
func (c *Client) PushesDropped() int64 { return c.pushesDrop.Load() }

// Close tears down the connection and unblocks every waiter: in-flight
// round-trips fail with the terminal error and an active subscription's
// channel closes.
func (c *Client) Close() error { return c.shutdown() }

// deliver is the client's side of the read loop: pushes to the
// subscription, everything else to the round trip owed it. Unmatched
// envelopes (acks for router-replayed subscribes, replies that lost their
// waiter to a context) are dropped.
func (c *Client) deliver(env *wire.Envelope) {
	switch {
	case env.Type == wire.MsgFramePush, env.Type == wire.MsgFrameDelta:
		c.deliverPush(env)
	case env.Type == wire.MsgError && env.Seq == 0:
		// Seq 0 is never a reply: it is the server's stream obituary (a
		// shard died past its reconnect budget, say). The stream ends;
		// request/reply keeps working.
		c.endSub(nil, fmt.Errorf("client: stream ended by server: %s", env.Payload))
	default:
		c.settle(env)
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

// sendAck fire-and-forgets a frame-ack (protocol v4) as a push, so the read
// loop never parks on it: a lost progress ack is harmless, and a lost
// keyframe request is asked again (requestKeyframe).
func (c *Client) sendAck(a wire.FrameAck) {
	_ = c.send(wire.MsgAck, false, func(b *wire.Buffer) { wire.EncodeFrameAckInto(b, a) })
}

// endSub closes the subscription cs — with cs nil, whichever is active —
// recording why. Without that subscription active it is a no-op: a late
// obituary cannot clobber the cause an earlier teardown recorded, and a
// stale caller (an old context watcher, a late Unsubscribe) cannot tear down
// a newer stream that replaced the one it knew about.
func (c *Client) endSub(cs *clientSub, cause error) {
	c.mu.Lock()
	if cs == nil {
		cs = c.sub
	}
	if cs == nil || c.sub != cs {
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

// send queues a one-way envelope whose payload fill encodes into a pooled
// buffer, held until written. A reply-class message (a sensor sample) is
// never dropped: the caller parks while replyWindow messages are unwritten,
// until Close releases it. A push-class one (a frame ack) never parks.
func (c *Client) send(t wire.MsgType, reply bool, fill func(b *wire.Buffer)) error {
	if reply {
		c.out.awaitReplies(replyWindow - 1)
	}
	buf := c.bufs.Get().(*wire.Buffer)
	buf.Reset()
	fill(buf)
	env := wire.Envelope{Type: t, Seq: c.seq.Add(1), Payload: buf.Bytes()}
	if !c.out.enqueue(outMsg{env: env, reply: reply, buf: buf, pool: &c.bufs}) {
		return ErrClientClosed
	}
	return nil
}

// SendGPS streams a GPS fix (no reply expected).
func (c *Client) SendGPS(fix sensor.GPSFix) error {
	return c.send(wire.MsgSensorEvent, true, func(b *wire.Buffer) {
		b.Byte(SensorGPS)
		b.Uvarint(uint64(fix.Time.UnixNano()))
		b.Float64(fix.Position.Lat)
		b.Float64(fix.Position.Lon)
		b.Float64(fix.AccuracyM)
	})
}

// SendIMU streams an inertial sample.
func (c *Client) SendIMU(s sensor.IMUSample) error {
	return c.send(wire.MsgSensorEvent, true, func(b *wire.Buffer) {
		b.Byte(SensorIMU)
		b.Uvarint(uint64(s.Time.UnixNano()))
		b.Float64(s.GyroZRad)
		b.Float64(s.AccelMps2)
		b.Float64(s.CompassDeg)
	})
}

// SendGaze streams a gaze sample.
func (c *Client) SendGaze(s sensor.GazeSample) error {
	return c.send(wire.MsgSensorEvent, true, func(b *wire.Buffer) {
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
	var f *core.DecodedFrame
	err := c.roundTrip(ctx, wire.Envelope{Type: wire.MsgFrameRequest}, wire.MsgAnnotations, func(p []byte) (err error) {
		f, err = core.DecodeFrame(p)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	return f, time.Since(start), nil
}

// Ping round-trips a control message (connectivity check).
func (c *Client) Ping() error { return c.PingContext(context.Background()) }

// PingContext is Ping bounded by a context.
func (c *Client) PingContext(ctx context.Context) error {
	return c.roundTrip(ctx, wire.Envelope{Type: wire.MsgControl}, wire.MsgAck, nil)
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
	if err := c.roundTrip(ctx, wire.Envelope{Type: wire.MsgSubscribe, Payload: payload.Bytes()}, wire.MsgAck, nil); err != nil {
		// The subscribe may already be on the wire with the server
		// streaming toward us (the wait gave up, not the server): send a
		// best-effort unsubscribe so an unobserved stream doesn't burn
		// scheduler slots for the life of the connection. Its ack is
		// unmatched and dropped by the demux.
		c.out.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgUnsubscribe, Seq: c.seq.Add(1)}, reply: true})
		c.endSub(cs, err)
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
	err := c.roundTrip(context.Background(), wire.Envelope{Type: wire.MsgUnsubscribe}, wire.MsgAck, nil)
	// Clean or not, the stream is over locally: late pushes are dropped.
	c.endSub(cs, nil)
	return err
}
