package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestRejectsEmptyRuns pins the flag checks: a run that would drive no load
// — no frame per second, no client, no time — is refused with an error
// before anything is dialed, instead of dividing by zero (or arming a
// negative ticker) mid-run, or reporting zero frames and zero errors as
// success.
func TestRejectsEmptyRuns(t *testing.T) {
	args := os.Args
	t.Cleanup(func() { os.Args, flag.CommandLine = args, flag.NewFlagSet(args[0], flag.ExitOnError) })
	for _, tc := range []struct{ flag, value string }{
		{"-fps", "0"}, {"-fps", "-3"},
		{"-clients", "0"}, {"-clients", "-2"},
		{"-duration", "0s"}, {"-duration", "-1s"},
	} {
		// Nothing listens on port 1: a run that got as far as dialing fails
		// with a connection error, not the flag's.
		os.Args = []string{"arbd-loadgen", "-addr", "127.0.0.1:1", "-stream", tc.flag, tc.value}
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		err := run()
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("%s %s: run() = %v, want the flag refused", tc.flag, tc.value, err)
		}
	}
}
