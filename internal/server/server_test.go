package server

import (
	"io"
	"log"
	"strings"
	"sync"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

var center = geo.Point{Lat: 22.3364, Lon: 114.2655}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	p, err := core.NewPlatform(core.Config{
		Seed: 1,
		City: geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(p, log.New(io.Discard, "", 0))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Logf("close: %v", err)
		}
	})
	return srv, addr
}

func TestPingPong(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSensorThenFrame(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	now := time.Now()
	if err := c.SendGPS(sensor.GPSFix{Time: now, Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.SendIMU(sensor.IMUSample{Time: now.Add(time.Millisecond), CompassDeg: 90}); err != nil {
		t.Fatal(err)
	}
	f, rtt, err := c.RequestFrame()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Annotations) == 0 {
		t.Fatal("no annotations over the wire")
	}
	if rtt <= 0 || rtt > 5*time.Second {
		t.Fatalf("rtt = %v", rtt)
	}
	if err := c.SendGaze(sensor.GazeSample{Time: now, TargetID: f.Annotations[0].ID, DwellMS: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownGazeTargetAnswered: a gaze at an ID that names no POI is a
// bad sensor payload — answered with an error carrying its seq, the
// connection kept — while a gaze at a real POI stays unanswered.
func TestUnknownGazeTargetAnswered(t *testing.T) {
	_, addr := startServer(t)
	rc := dialRaw(t, addr)
	rc.hello(t, "probe", wire.ProtoMax)
	gaze := func(target uint64) uint64 {
		var b wire.Buffer
		b.Byte(SensorGaze)
		b.Uvarint(uint64(time.Now().UnixNano()))
		b.Uvarint(target)
		b.Float64(2000)
		return rc.send(t, wire.MsgSensorEvent, 0, b.Bytes())
	}
	gaze(1)
	bad := gaze(1 << 40)
	ping := rc.send(t, wire.MsgControl, 0, nil)
	env := rc.read(t)
	if env.Type != wire.MsgError || env.Seq != bad || !strings.Contains(string(env.Payload), "poi not found") {
		t.Fatalf("unknown gaze target answered %v seq %d %q, want error for seq %d", env.Type, env.Seq, env.Payload, bad)
	}
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != ping {
		t.Fatalf("after the refused gaze: %v seq %d, want the ping's ack for seq %d", env.Type, env.Seq, ping)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			now := time.Now()
			if err := c.SendGPS(sensor.GPSFix{Time: now, Position: center, AccuracyM: 3}); err != nil {
				errs <- err
				return
			}
			for f := 0; f < 5; f++ {
				if _, _, err := c.RequestFrame(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerSurvivesGarbageClient(t *testing.T) {
	_, addr := startServer(t)
	// A raw connection writing junk must not take the server down.
	raw, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = raw.conn.Write([]byte("totally not a frame"))
	_ = raw.Close()

	// A well-behaved client still works afterwards.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestCloseIsIdempotentAndUnblocksClients(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded after server close")
	}
}
