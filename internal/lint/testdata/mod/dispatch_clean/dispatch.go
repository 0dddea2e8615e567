// Package dispatch_clean is the quiet dispatch fixture: the annotated loop
// names every exported MsgType constant; unannotated functions may switch
// over as few as they like.
package dispatch_clean

import wire "fixture/wire_clean"

//arbd:dispatch
func serve(t wire.MsgType) int {
	switch t {
	case wire.MsgAlpha:
		return 1
	case wire.MsgBeta:
		return 2
	}
	return 0
}

func partial(t wire.MsgType) bool {
	switch t {
	case wire.MsgAlpha:
		return true
	}
	return false
}
