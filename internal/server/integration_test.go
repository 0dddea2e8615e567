package server

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"arbd/internal/wire"
)

// TestManyClientsSeqIntegrity drives 16+ concurrent clients through
// GPS→Frame round-trips at the wire level and asserts the reply stream:
// every frame request is answered, replies carry the request's Seq in
// order (no drops, no misordering), and each connection is pinned to one
// distinct session.
func TestManyClientsSeqIntegrity(t *testing.T) {
	_, addr := startServer(t)
	const clients = 16
	const polls = 25

	sessionCh := make(chan uint64, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := runSeqClient(addr, c, polls, sessionCh); err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(sessionCh)
	seen := make(map[uint64]bool)
	for id := range sessionCh {
		if seen[id] {
			t.Fatalf("session %d served two connections", id)
		}
		seen[id] = true
	}
	if len(seen) != clients {
		t.Fatalf("saw %d distinct sessions, want %d", len(seen), clients)
	}
}

// runSeqClient speaks the wire protocol directly so the test can observe
// raw envelope sequence numbers rather than the Client's matched replies.
func runSeqClient(addr string, id, polls int, sessionCh chan<- uint64) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	fr := wire.NewFrameReader(conn)
	fw := wire.NewFrameWriter(conn)
	var seq uint64
	send := func(typ wire.MsgType, payload []byte) error {
		seq++
		if err := fw.WriteEnvelope(&wire.Envelope{Type: typ, Seq: seq, Payload: payload}); err != nil {
			return err
		}
		return fw.Flush()
	}

	// The mandatory hello; its reply names the connection's session.
	var hb wire.Buffer
	wire.EncodeHelloInto(&hb, wire.Hello{Name: "seq-client", Version: wire.ProtoMax})
	if err := send(wire.MsgHello, hb.Bytes()); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if env, err := fr.ReadEnvelope(); err != nil || env.Type != wire.MsgHello {
		return fmt.Errorf("hello reply: %v, %v", env, err)
	}

	var session uint64
	for r := 0; r < polls; r++ {
		// GPS fix: one-way, no reply — the next reply on the wire must
		// still be for the frame request that follows.
		var b wire.Buffer
		b.Uvarint(uint64(time.Now().UnixNano()))
		b.Float64(center.Lat + float64(id)*1e-5)
		b.Float64(center.Lon)
		b.Float64(3)
		if err := send(wire.MsgSensorEvent, append([]byte{SensorGPS}, b.Bytes()...)); err != nil {
			return fmt.Errorf("round %d: gps: %w", r, err)
		}
		if err := send(wire.MsgFrameRequest, nil); err != nil {
			return fmt.Errorf("round %d: frame req: %w", r, err)
		}
		want := seq
		env, err := fr.ReadEnvelope()
		if err != nil {
			return fmt.Errorf("round %d: read: %w", r, err)
		}
		if env.Type == wire.MsgError {
			return fmt.Errorf("round %d: server error: %s", r, env.Payload)
		}
		if env.Type != wire.MsgAnnotations {
			return fmt.Errorf("round %d: reply type %v", r, env.Type)
		}
		if env.Seq != want {
			return fmt.Errorf("round %d: reply seq %d, want %d (dropped or misordered)", r, env.Seq, want)
		}
		if r == 0 {
			session = env.Session
			if session == 0 {
				return fmt.Errorf("round 0: zero session id")
			}
		} else if env.Session != session {
			return fmt.Errorf("round %d: session changed %d -> %d", r, session, env.Session)
		}
	}
	sessionCh <- session
	return nil
}
