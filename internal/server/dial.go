// The dial side of a connection, which every dialer runs — the Client, a
// router's link to each shard, the AdminClient — as every listener runs
// connServer.serve; each dialer plugs in only its deliver function. After the
// handshake the outbox (stream.go) is the only writer and serve the only
// reader, so no caller parks on a peer that stopped reading: a round trip
// waits in the ledger for its reply, its context or the connection's end.
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

	// The ledger of owed replies: a slot per waiting round trip, keyed by
	// its request's seq, reused rather than allocated per call.
	owedMu sync.Mutex
	owed   map[uint64]*call
	free   []*call
	err    error // terminal: set once serve has returned

	done chan struct{} // closed once a started read loop has ended
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
	dc := &dialConn{conn: conn, fr: wire.NewFrameReader(conn), owed: make(map[uint64]*call)}
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
// serve closes the connection and its outbox, settles every owed round trip
// with the terminal error, and returns the read error.
func (dc *dialConn) serve(deliver func(*wire.Envelope)) error {
	var in wire.Envelope
	for {
		if err := dc.fr.ReadEnvelopeReuse(&in); err != nil {
			dc.close()
			dc.owedMu.Lock()
			dc.err = fmt.Errorf("%w: %v", ErrClientClosed, err)
			for seq, c := range dc.owed {
				delete(dc.owed, seq)
				c.err = dc.err
				c.done <- struct{}{}
			}
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

// settle hands a reply to the round trip owed it. One no round trip waits
// for — a watch push, a reply whose waiter gave up — is dropped.
func (dc *dialConn) settle(env *wire.Envelope) {
	dc.owedMu.Lock()
	if c := dc.owed[env.Seq]; c != nil {
		delete(dc.owed, env.Seq)
		c.buf = append(c.buf[:0], env.Payload...)
		c.reply = *env
		c.reply.Payload = c.buf
		c.done <- struct{}{}
	}
	dc.owedMu.Unlock()
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
	seq := dc.seq.Add(1)
	dc.owed[seq] = c
	dc.owedMu.Unlock()
	req.Seq = seq
	if !dc.out.enqueue(outMsg{env: req, reply: true}) {
		_ = dc.conn.Close() // the writer is dead: end serve, which settles the slot
	}
	select {
	case <-c.done:
	case <-ctx.Done():
		dc.owedMu.Lock()
		abandoned := dc.owed[seq] == c
		if abandoned {
			delete(dc.owed, seq)
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
