package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestRejectsFPSBelowOne pins the flag check: a frame rate below one per
// second is refused with an error before anything is dialed, instead of
// dividing by zero (or arming a negative ticker) mid-run.
func TestRejectsFPSBelowOne(t *testing.T) {
	args := os.Args
	t.Cleanup(func() { os.Args, flag.CommandLine = args, flag.NewFlagSet(args[0], flag.ExitOnError) })
	for _, fps := range []string{"0", "-3"} {
		// Nothing listens on port 1: a run that got as far as dialing fails
		// with a connection error, not the flag's.
		os.Args = []string{"arbd-loadgen", "-addr", "127.0.0.1:1", "-stream", "-fps", fps}
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		err := run()
		if err == nil || !strings.Contains(err.Error(), "-fps") {
			t.Fatalf("-fps %s: run() = %v, want the flag refused", fps, err)
		}
	}
}
