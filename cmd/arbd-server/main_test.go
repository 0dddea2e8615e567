package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestRejectsBadWorlds pins the world checks of the serving roles: a POI
// count below one, a radius that is not positive and a negative epsilon are
// refused with an error naming the flag before anything binds, instead of
// the platform substituting its defaults for the first two and the privacy
// gate silently staying shut for the third. A router builds no world, so
// the same flags do not stop it.
func TestRejectsBadWorlds(t *testing.T) {
	args := os.Args
	t.Cleanup(func() { os.Args, flag.CommandLine = args, flag.NewFlagSet(args[0], flag.ExitOnError) })
	for _, tc := range []struct{ role, flag, value string }{
		{"standalone", "-pois", "0"}, {"standalone", "-pois", "-5"},
		{"standalone", "-radius", "0"}, {"standalone", "-radius", "-100"}, {"standalone", "-radius", "NaN"},
		{"standalone", "-epsilon", "-0.01"},
		{"shard", "-pois", "0"}, {"shard", "-radius", "0"}, {"shard", "-epsilon", "-1"},
	} {
		// An address nothing can bind: a run that got past the checks fails
		// with a listen error, not the flag's.
		os.Args = []string{"arbd-server", "-role", tc.role, "-addr", "127.0.0.1:-1", tc.flag, tc.value}
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		err := run()
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("-role %s %s %s: run() = %v, want the flag refused", tc.role, tc.flag, tc.value, err)
		}
	}

	os.Args = []string{"arbd-server", "-role", "router", "-pois", "0"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	if err := run(); err == nil || strings.Contains(err.Error(), "-pois") {
		t.Fatalf("router with -pois 0: run() = %v, want only its missing -shards refused", err)
	}
}
