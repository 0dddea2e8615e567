// Streaming: the subscription session in one file. A standalone server
// comes up over loopback (in production this is `arbd-server`), a client
// dials it, settles the protocol version in the hello handshake, feeds one
// GPS fix, and subscribes — from then on the server owns the frame clock and pushes
// the overlay at the requested cadence; the client just drains a channel.
// Compare examples/quickstart, which polls the in-process API frame by
// frame.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"arbd"
	"arbd/internal/server"
)

func main() {
	platform, err := arbd.New(arbd.Config{
		Seed: 42,
		City: arbd.CityConfig{
			Center:  arbd.Point{Lat: 22.3364, Lon: 114.2655}, // HKUST
			RadiusM: 2000,
			NumPOIs: 1500,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := platform.Start(); err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := platform.Stop(); err != nil {
			log.Printf("stop: %v", err)
		}
	}()

	srv := server.New(platform, log.Default())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Every connection opens with a hello: against a server that speaks no
	// version this client can, Dial fails with a typed *arbd.VersionError
	// instead of a mid-session surprise.
	client, err := arbd.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	fmt.Printf("connected: protocol v%d, session %d\n", client.Proto(), client.SessionID())

	if err := client.SendGPS(arbd.GPSFix{
		Time:      time.Now(),
		Position:  arbd.Point{Lat: 22.3364, Lon: 114.2655},
		AccuracyM: 5,
	}); err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// 10 Hz; if we fall behind, the server drops our oldest queued frame.
	frames, err := client.Subscribe(ctx, arbd.SubscribeOptions{Interval: 100 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}

	last := time.Time{}
	for f := range frames {
		gap := time.Duration(0)
		if !last.IsZero() {
			gap = time.Since(last).Round(time.Millisecond)
		}
		last = time.Now()
		fmt.Printf("push #%d: %d annotations (level %v, +%v)\n",
			f.Seq, len(f.Annotations), f.Level, gap)
		if f.Seq >= 5 {
			if err := client.Unsubscribe(); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := client.StreamErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("stream closed cleanly")
}
