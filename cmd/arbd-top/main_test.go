package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestRejectsBadArgs pins the flag checks: a trace count, iteration count or
// refresh interval that cannot drive a view is refused with an error naming
// the flag before the first scrape, instead of panicking on the slow-frame
// table (-slow -1), reporting every node unreachable (-slow 0), exiting
// silently (-n -1) or scraping in a busy loop (-interval 0).
func TestRejectsBadArgs(t *testing.T) {
	args := os.Args
	t.Cleanup(func() { os.Args, flag.CommandLine = args, flag.NewFlagSet(args[0], flag.ExitOnError) })
	for _, tc := range []struct{ flag, value string }{
		{"-slow", "0"}, {"-slow", "-1"},
		{"-n", "-1"},
		{"-interval", "0s"}, {"-interval", "-1s"},
	} {
		// Nothing listens on port 1 and -n 1 stops after one refresh: a run
		// that got past the checks returns nil after printing nodes
		// unreachable, not the flag's error.
		os.Args = []string{"arbd-top", "-addrs", "127.0.0.1:1", "-n", "1", "-interval", "1ms", tc.flag, tc.value}
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		err := run()
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("%s %s: run() = %v, want the flag refused", tc.flag, tc.value, err)
		}
	}
}
