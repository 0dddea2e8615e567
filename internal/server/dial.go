// The dial side of a connection, which every dialer runs — the Client, a
// router's link to each shard, the AdminClient — as every listener runs
// connServer.serve; each dialer plugs in only its deliver function. After the
// handshake the outbox (stream.go) is the only writer and serve the only
// reader, so no caller parks on a peer that stopped reading. Every reply the
// peer owes sits in the connection's one ledger: a round trip waits there for
// its reply, its context or the connection's end, and a router's forward
// holds its client's reply slot there until the shard answers or the
// connection dies.
package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/wire"
)

// dialConn is one dialled and handshaken connection.
type dialConn struct {
	conn  net.Conn
	fr    *wire.FrameReader
	out   *outbox
	peer  wire.Hello // the listener's hello
	proto uint32     // the version the handshake settled
	seq   atomic.Uint64

	// The ledger of owed replies. A round trip is keyed (0, its link seq),
	// its call reused rather than allocated per call; a forward by its
	// client's (session, seq), and router sessions start at 1, so the two
	// never meet. frames is the forwarded frame requests in forward order,
	// answered ones popped lazily from the head: admission reads its age.
	owedMu sync.Mutex
	owed   map[owedKey]owedEntry
	frames []owedKey
	free   []*call
	err    error // terminal: set once serve has returned

	done chan struct{} // closed once a started read loop has ended
}

type owedKey struct{ session, seq uint64 }

// owedEntry is one owed reply: a round trip's call, or a forward's request
// type, the client outbox holding a reply slot for it, and when it went out.
type owedEntry struct {
	c   *call
	t   wire.MsgType
	out *outbox
	at  time.Time
}

// call is one round trip's ledger slot.
type call struct {
	done  chan struct{} // 1-buffered: signalled once the slot settles
	reply wire.Envelope // its payload is buf
	buf   []byte
	err   error // the terminal error, when the connection died first
}

// dialHandshake runs the dialer's half of the handshake on conn, bounded by
// deadline (zero: unbounded), then starts the outbox over w — conn itself,
// or a wrapper of it. It owns conn from here, success or failure.
func dialHandshake(conn net.Conn, w io.Writer, deadline time.Time, name string, maxProto uint32) (*dialConn, error) {
	dc := &dialConn{conn: conn, fr: wire.NewFrameReader(conn), owed: make(map[owedKey]owedEntry)}
	_ = conn.SetDeadline(deadline)
	var err error
	if dc.peer, dc.proto, err = dialHello(dc.fr, wire.NewFrameWriter(conn), name, maxProto); err != nil {
		_ = conn.Close()
		return nil, err
	}
	_ = conn.SetDeadline(time.Time{})
	dc.out = newOutbox(w, 1, nil)
	return dc, nil
}

// dialHello runs the dialer's half of the handshake on a fresh connection:
// announce name and maxProto, read the listener's hello, settle the
// version. The caller owns the connection's deadline. A version mismatch
// surfaces as a *wire.VersionError.
func dialHello(fr *wire.FrameReader, fw *wire.FrameWriter, name string, maxProto uint32) (peer wire.Hello, proto uint32, err error) {
	var buf wire.Buffer
	wire.EncodeHelloInto(&buf, wire.Hello{Name: name, Version: maxProto})
	if err = sendEnvelope(fw, &wire.Envelope{Type: wire.MsgHello, Payload: buf.Bytes()}); err != nil {
		return peer, 0, fmt.Errorf("sending hello: %w", err)
	}
	env, err := fr.ReadEnvelope()
	if err != nil {
		return peer, 0, fmt.Errorf("reading hello: %w", err)
	}
	switch env.Type {
	case wire.MsgHello:
	case wire.MsgError:
		return peer, 0, fmt.Errorf("hello rejected: %s", env.Payload)
	default:
		return peer, 0, fmt.Errorf("hello answered with %v", env.Type)
	}
	if peer, err = wire.DecodeHello(env.Payload); err != nil {
		return peer, 0, err
	}
	proto, err = wire.Negotiate(maxProto, peer.Version, wire.ProtoMin)
	return peer, proto, err
}

// serve is the dial side's read loop: it hands deliver every envelope, in
// arrival order, until a read fails. The envelope is reused — its payload
// valid until deliver returns — and deliver must not block. On the way out
// serve closes the connection and its outbox, then settles every owed reply
// once: a round trip with the terminal error, a forward with ErrShardDown
// to its client and its reply slot returned. It returns the read error.
func (dc *dialConn) serve(deliver func(*wire.Envelope)) error {
	var in wire.Envelope
	for {
		if err := dc.fr.ReadEnvelopeReuse(&in); err != nil {
			dc.close()
			dc.owedMu.Lock()
			dc.err = fmt.Errorf("%w: %v", ErrClientClosed, err)
			for k, e := range dc.owed {
				delete(dc.owed, k)
				if e.c != nil {
					e.c.err = dc.err
					e.c.done <- struct{}{}
				} else {
					e.out.fail(k.session, k.seq, ErrShardDown.Error())
					e.out.expect(-1)
				}
			}
			dc.frames = dc.frames[:0]
			dc.owedMu.Unlock()
			return err
		}
		deliver(&in)
	}
}

// start runs serve on its own goroutine, then ended (if set), before
// shutdown may return.
func (dc *dialConn) start(deliver func(*wire.Envelope), ended func()) {
	dc.done = make(chan struct{})
	go func() {
		_ = dc.serve(deliver)
		if ended != nil {
			ended()
		}
		close(dc.done)
	}()
}

// shutdown closes the connection and waits out the read loop start ran.
func (dc *dialConn) shutdown() error {
	err := dc.conn.Close()
	<-dc.done
	return err
}

// close closes the connection, then waits out its outbox writer.
func (dc *dialConn) close() {
	_ = dc.conn.Close()
	dc.out.close()
}

// settle hands a reply to the round trip owed it, found by its seq alone.
// One no round trip waits for, a reply whose waiter gave up, is dropped.
func (dc *dialConn) settle(env *wire.Envelope) {
	k := owedKey{0, env.Seq}
	dc.owedMu.Lock()
	if c := dc.owed[k].c; c != nil {
		delete(dc.owed, k)
		c.buf = append(c.buf[:0], env.Payload...)
		c.reply = *env
		c.reply.Payload = c.buf
		c.done <- struct{}{}
	}
	dc.owedMu.Unlock()
}

// owe enters a forward of the client request (session, seq) of type t,
// holding a reply slot in out until settleForward or the connection's end
// gives it back. It reports false on a dead connection, which owes nothing.
// A (session, seq) already owed is not entered again: a reused seq's second
// reply arrives outside the ledger.
func (dc *dialConn) owe(session, seq uint64, t wire.MsgType, out *outbox) bool {
	k := owedKey{session, seq}
	dc.owedMu.Lock()
	defer dc.owedMu.Unlock()
	if dc.err != nil {
		return false
	}
	if _, dup := dc.owed[k]; dup {
		return true
	}
	dc.owed[k] = owedEntry{t: t, out: out, at: time.Now()}
	if t == wire.MsgFrameRequest {
		dc.frames = append(dc.frames, k)
	}
	out.expect(1)
	return true
}

// settleForward settles the forward of (session, seq), returning its type,
// or zero if none was owed (a sensor error or a replayed subscribe's ack
// was not). It pops answered entries off the frame FIFO's head, so the head
// is always owed and the FIFO stays bounded by the outstanding count even
// when admission never reads it.
func (dc *dialConn) settleForward(session, seq uint64) wire.MsgType {
	k := owedKey{session, seq}
	dc.owedMu.Lock()
	defer dc.owedMu.Unlock()
	e := dc.owed[k]
	if e.out == nil {
		return 0
	}
	delete(dc.owed, k)
	i := 0
	for ; i < len(dc.frames); i++ {
		if _, ok := dc.owed[dc.frames[i]]; ok {
			break
		}
	}
	if i > 0 {
		n := copy(dc.frames, dc.frames[i:])
		dc.frames = dc.frames[:n]
	}
	return e.t
}

// headAge returns how long the oldest frame request still owed has waited
// (zero when none is, as on a dead connection).
func (dc *dialConn) headAge(now time.Time) time.Duration {
	dc.owedMu.Lock()
	defer dc.owedMu.Unlock()
	if len(dc.frames) == 0 {
		return 0
	}
	return now.Sub(dc.owed[dc.frames[0]].at)
}

// roundTrip sends req under the next seq, as a reply-class message that never
// parks its caller, and waits for the reply carrying that seq, for ctx, or
// for the connection to die. A reply of type want goes to read (if set), its
// payload valid until read returns; an error reply becomes the error.
func (dc *dialConn) roundTrip(ctx context.Context, req wire.Envelope, want wire.MsgType, read func(payload []byte) error) error {
	dc.owedMu.Lock()
	if dc.err != nil {
		dc.owedMu.Unlock()
		return dc.err
	}
	var c *call
	if n := len(dc.free); n > 0 {
		c, dc.free = dc.free[n-1], dc.free[:n-1]
	} else {
		c = &call{done: make(chan struct{}, 1)}
	}
	k := owedKey{0, dc.seq.Add(1)}
	dc.owed[k] = owedEntry{c: c}
	dc.owedMu.Unlock()
	req.Seq = k.seq
	if !dc.out.enqueue(outMsg{env: req, reply: true}) {
		_ = dc.conn.Close() // the writer is dead: end serve, which settles the slot
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		dc.owedMu.Lock()
		abandoned := dc.owed[k].c == c
		if abandoned {
			delete(dc.owed, k)
			dc.free = append(dc.free, c)
		}
		dc.owedMu.Unlock()
		if abandoned {
			return ctx.Err()
		}
		<-c.done // settled as the context ended: the signal is already sent
	}
	err := c.err
	switch {
	case err != nil:
	case c.reply.Type == wire.MsgError:
		err = fmt.Errorf("client: server error: %s", c.reply.Payload)
	case c.reply.Type != want:
		err = fmt.Errorf("client: expected %v, got %v", want, c.reply.Type)
	case read != nil:
		err = read(c.reply.Payload)
	}
	c.err = nil
	dc.owedMu.Lock()
	dc.free = append(dc.free, c)
	dc.owedMu.Unlock()
	return err
}
