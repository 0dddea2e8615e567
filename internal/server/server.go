// Package server exposes the platform over TCP using the wire protocol:
// clients stream sensor envelopes and receive frames, polled or pushed.
// One connection loop (conn.go) over the frame-serving Engine (platform +
// scheduler + pooled response encoding) serves both session-serving roles:
// the standalone Server here (one core.Session per client connection) and
// the Shard (a partition of the session ID space behind a Router). The
// Router owns client connections and forwards to shards over a rendezvous
// ring. cmd/arbd-server selects the role; cmd/arbd-loadgen drives a
// standalone server or a router identically.
package server

import (
	"log"

	"arbd/internal/core"
)

// Sensor payload kinds inside MsgSensorEvent envelopes. Enums start at 1.
const (
	SensorGPS uint8 = iota + 1
	SensorIMU
	SensorGaze
)

// Server is the client-facing node: one session per client connection.
type Server struct{ *node }

// New returns a server for the platform (not yet listening).
func New(p *core.Platform, logger *log.Logger) *Server {
	return newServer(p, logger, 0)
}

// newServer is New with a scheduler of the given worker count (zero:
// GOMAXPROCS); tests pass one to stall the only worker.
func newServer(p *core.Platform, logger *log.Logger, workers int) *Server {
	return &Server{newNode(p, logger, workers, "server")}
}

// Scheduler exposes the server's frame scheduler (for stats).
func (s *Server) Scheduler() *FrameScheduler { return s.eng.sched }
