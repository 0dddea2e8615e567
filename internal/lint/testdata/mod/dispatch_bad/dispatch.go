// Package dispatch_bad seeds the dispatch violations: a serving loop whose
// switch forgets a message type, and an annotated function with no switch
// over MsgType at all.
package dispatch_bad

import wire "fixture/wire_clean"

// serve forgets MsgBeta: a default arm does not count as a decision.
//
//arbd:dispatch
func serve(t wire.MsgType) int {
	switch t {
	case wire.MsgAlpha:
		return 1
	default:
		return 0
	}
}

// chain decides by if-chain, which nothing can check.
//
//arbd:dispatch
func chain(t wire.MsgType) int {
	if t == wire.MsgAlpha {
		return 1
	}
	return 0
}
