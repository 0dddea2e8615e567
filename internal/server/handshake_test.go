package server

import (
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"arbd/internal/wire"
)

// TestHostileHandshakes drives every way of not opening a connection with
// a usable hello against all four acceptors — the standalone server, a
// shard's backend listener, a router's client listener and its admin
// listener. Each gets the typed error back (or, for a dialer that never
// completes an envelope, the hello deadline) and then a closed connection;
// nothing is served, no session outlives the connection and no goroutine is
// left behind.
func TestHostileHandshakes(t *testing.T) {
	old := helloTimeout
	helloTimeout = 150 * time.Millisecond
	t.Cleanup(func() { helloTimeout = old }) // runs last, after the servers closed

	srv, standalone := startServer(t)
	shard, backend := newExtraShard(t, 7)
	tc := startCluster(t, 1, nil, RouterOptions{})
	admin, err := tc.router.ListenAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	routerSessions := func() int {
		tc.router.sessMu.RLock()
		defer tc.router.sessMu.RUnlock()
		return len(tc.router.sessions) + tc.shards[0].Engine().Platform().NumSessions()
	}
	acceptors := []struct {
		name     string
		addr     string
		sessions func() int
	}{
		{"standalone", standalone, srv.Engine().Platform().NumSessions},
		{"shard", backend, shard.Engine().Platform().NumSessions},
		{"router", tc.addr, routerSessions},
		{"admin", admin, routerSessions},
	}

	hello := func(version uint32) []byte {
		var b wire.Buffer
		wire.EncodeHelloInto(&b, wire.Hello{Name: "hostile", Version: version})
		return b.Bytes()
	}
	var noVersion wire.Buffer // the pre-versioning layout: id and name only
	noVersion.Uvarint(0)
	noVersion.String("hostile")
	versionErr := func(v uint32) string {
		return (&wire.VersionError{Local: wire.ProtoMax, Remote: v, Need: wire.ProtoMin}).Error()
	}

	cases := []struct {
		name string
		// open speaks first; wantErr is the text the acceptor must answer with
		// before closing ("" = it closes without a word, at the deadline).
		open    func(t *testing.T, rc *rawConn)
		wantErr string
	}{
		{"traffic before hello", func(t *testing.T, rc *rawConn) {
			rc.send(t, wire.MsgFrameRequest, 1, nil)
		}, "want hello"},
		{"subscribe before hello", func(t *testing.T, rc *rawConn) {
			var sb wire.Buffer
			wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 1})
			rc.send(t, wire.MsgSubscribe, 1, sb.Bytes())
		}, "want hello"},
		{"hello v1", func(t *testing.T, rc *rawConn) {
			rc.send(t, wire.MsgHello, 0, hello(wire.ProtoMin-2))
		}, versionErr(wire.ProtoMin - 2)},
		{"hello v2", func(t *testing.T, rc *rawConn) {
			rc.send(t, wire.MsgHello, 0, hello(wire.ProtoMin-1))
		}, versionErr(wire.ProtoMin - 1)},
		{"hello without a version", func(t *testing.T, rc *rawConn) {
			rc.send(t, wire.MsgHello, 0, noVersion.Bytes())
		}, "hello version"},
		{"second hello", func(t *testing.T, rc *rawConn) {
			rc.hello(t, "hostile", wire.ProtoMax)
			rc.send(t, wire.MsgHello, 0, hello(wire.ProtoMax))
		}, "hello after handshake"},
		{"half a frame", func(t *testing.T, rc *rawConn) {
			if _, err := rc.c.Write([]byte{40, 0, 0, 0, 1, 2}); err != nil {
				t.Fatal(err)
			}
		}, ""},
		{"silence", func(t *testing.T, rc *rawConn) {}, ""},
	}

	baseline := runtime.NumGoroutine()
	for _, a := range acceptors {
		for _, c := range cases {
			t.Run(a.name+"/"+c.name, func(t *testing.T) {
				conn, err := net.Dial("tcp", a.addr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				rc := &rawConn{c: conn, fr: wire.NewFrameReader(conn), fw: wire.NewFrameWriter(conn)}
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				c.open(t, rc)
				if c.wantErr != "" {
					env := rc.read(t)
					if env.Type != wire.MsgError || !strings.Contains(string(env.Payload), c.wantErr) {
						t.Fatalf("answer = %v %q, want error containing %q", env.Type, env.Payload, c.wantErr)
					}
				}
				// Whatever was said, nothing else follows and the acceptor
				// hangs up: the hostile side never has to.
				if env, err := rc.fr.ReadEnvelope(); !errors.Is(err, io.EOF) {
					t.Fatalf("after the handshake failed: read %v, %v; want EOF", env, err)
				}
				waitFor(t, a.name+" sessions to end", func() bool { return a.sessions() == 0 })
			})
		}
	}
	waitFor(t, "connection goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
