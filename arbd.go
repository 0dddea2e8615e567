// Package arbd is the public API of the AR⊕big-data convergence platform —
// a Go reproduction of "When Augmented Reality Meets Big Data" (Huang, Hui,
// Peylo). It re-exports the platform core and the domain types downstream
// applications need; the substrates live under internal/ (see README
// §Architecture map for the inventory).
//
// Quickstart:
//
//	p, err := arbd.New(arbd.Config{
//		Seed: 1,
//		City: arbd.CityConfig{Center: arbd.Point{Lat: 22.3364, Lon: 114.2655}},
//	})
//	if err != nil { ... }
//	if err := p.Start(); err != nil { ... }
//	defer p.Stop()
//
//	s := p.NewSession()
//	_ = s.OnGPS(fix)              // feed device sensors
//	frame, err := s.Frame(now)    // get the AR overlay
package arbd

import (
	"context"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/recommend"
	"arbd/internal/render"
	"arbd/internal/sensor"
	"arbd/internal/server"
	"arbd/internal/wire"
)

// Core platform types.
type (
	// Platform is the convergence system: substrates plus the analytics
	// plane.
	Platform = core.Platform
	// Config parameterises a Platform.
	Config = core.Config
	// Session is one device's connection.
	Session = core.Session
	// Frame is one rendered AR overlay.
	Frame = core.Frame
	// Stats summarises session health.
	Stats = core.Stats
	// DegradeLevel is the timeliness controller's state.
	DegradeLevel = core.DegradeLevel
)

// Degradation levels (timeliness controller, §4.1 of the paper).
const (
	DegradeNone   = core.DegradeNone
	DegradeRadius = core.DegradeRadius
	DegradeInterp = core.DegradeInterp
)

// Geospatial types.
type (
	// Point is a WGS84 coordinate.
	Point = geo.Point
	// CityConfig parameterises the synthetic city generator.
	CityConfig = geo.CityConfig
	// POI is a point of interest.
	POI = geo.POI
)

// Device sensor types.
type (
	// GPSFix is one positioning sample.
	GPSFix = sensor.GPSFix
	// IMUSample is one inertial sample.
	IMUSample = sensor.IMUSample
	// GazeSample is one eye-tracking sample.
	GazeSample = sensor.GazeSample
	// Pose is position plus orientation.
	Pose = sensor.Pose
	// LandmarkObservation is a recognised visual landmark.
	LandmarkObservation = sensor.LandmarkObservation
)

// Overlay types.
type (
	// Annotation is one placed overlay element.
	Annotation = render.Annotation
)

// Recommendation types.
type (
	// Recommender ranks items for a user.
	Recommender = recommend.Recommender
	// Interaction is one implicit-feedback event.
	Interaction = recommend.Interaction
)

// Network client types: the wire-protocol client for talking to an
// arbd-server (standalone or router) over TCP.
type (
	// Client is the concurrency-safe protocol client: seq-matched
	// request/reply plus server-pushed frame subscriptions.
	Client = server.Client
	// DialOptions tunes the protocol handshake.
	DialOptions = server.DialOptions
	// SubscribeOptions sets a frame subscription's push cadence; the
	// server's push queue and the local channel hold 8 frames, oldest
	// dropped first.
	SubscribeOptions = server.SubscribeOptions
	// DecodedFrame is a frame received over the wire.
	DecodedFrame = core.DecodedFrame
	// VersionError is the typed protocol-handshake failure: the two sides
	// share no usable protocol version. Detect with errors.As.
	VersionError = wire.VersionError
)

// Dial connects to an arbd server at the default options and runs the
// protocol handshake.
func Dial(addr string) (*Client, error) { return server.Dial(addr) }

// DialContext connects with explicit handshake options, the context
// bounding the dial and handshake.
func DialContext(ctx context.Context, addr string, opts DialOptions) (*Client, error) {
	return server.DialContext(ctx, addr, opts)
}

// New builds a platform over a generated synthetic city. Call Start to run
// the analytics plane and Stop to drain it.
func New(cfg Config) (*Platform, error) {
	return core.NewPlatform(cfg)
}

// NewWalker returns a deterministic pedestrian motion model for driving
// sessions in examples and load generators.
func NewWalker(cfg sensor.WalkerConfig) *sensor.Walker {
	return sensor.NewWalker(cfg)
}

// WalkerConfig parameterises NewWalker.
type WalkerConfig = sensor.WalkerConfig
