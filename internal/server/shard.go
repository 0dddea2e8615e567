package server

import (
	"fmt"
	"log"

	"arbd/internal/core"
)

// Control payload discriminators inside MsgControl envelopes. An empty
// control payload is a ping (replied to with MsgAck); routers use
// CtrlEndSession to tell a shard a client disconnected.
const (
	// CtrlEndSession ends the envelope's session on the receiving shard: the
	// session leaves the registry.
	// One-way — no reply, since the client it belonged to is gone.
	CtrlEndSession uint8 = 1
)

// MsgMigrateSession reply status bytes (shard → router). The request
// direction needs no discriminator: an empty payload asks the shard to
// export the session, a non-empty payload is a snapshot to import.
const (
	// MigExported precedes the session snapshot in an export reply.
	MigExported uint8 = 1
	// MigImported acknowledges a successful snapshot import.
	MigImported uint8 = 2
	// MigFailed precedes UTF-8 error text in either direction's reply.
	MigFailed uint8 = 3
)

// ShardOptions tunes a shard node.
type ShardOptions struct {
	// ID is the shard's ring member identity, announced in the hello
	// handshake so a router can detect a miswired address.
	ID uint64

	// workers sizes the scheduler (zero: GOMAXPROCS); a test hook.
	workers int
}

// Shard is the backend node: it serves a partition of the session ID space
// to routers (which assign IDs and own placement).
type Shard struct{ *node }

// NewShard returns a shard node over the platform (not yet listening).
func NewShard(p *core.Platform, logger *log.Logger, opts ShardOptions) *Shard {
	n := newNode(p, logger, opts.workers, fmt.Sprintf("shard-%d", opts.ID))
	n.backend, n.id = true, opts.ID
	return &Shard{n}
}
