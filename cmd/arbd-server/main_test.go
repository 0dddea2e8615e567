package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestRejectsBadWorlds pins the world checks of the serving roles: a POI
// count below one and a radius that is not positive are refused with an
// error naming the flag before anything binds, instead of the platform
// substituting its defaults. A router builds no world, so
// the same flags do not stop it. Member ID 0 names no shard (-drain 0 means
// "no drain"), so -shard-id, -shards and -join refuse it the same way. A
// membership flag the role would ignore is refused too, and so is role
// admin asked to join and drain at once.
func TestRejectsBadWorlds(t *testing.T) {
	args := os.Args
	t.Cleanup(func() { os.Args, flag.CommandLine = args, flag.NewFlagSet(args[0], flag.ExitOnError) })
	for _, tc := range []struct {
		role, flag, value string
		more              []string
	}{
		{"standalone", "-pois", "0", nil}, {"standalone", "-pois", "-5", nil},
		{"standalone", "-radius", "0", nil}, {"standalone", "-radius", "-100", nil}, {"standalone", "-radius", "NaN", nil},
		{"shard", "-pois", "0", nil}, {"shard", "-radius", "0", nil},
		{"shard", "-shard-id", "0", nil}, {"router", "-shards", "0=127.0.0.1:1", nil}, {"admin", "-join", "0=127.0.0.1:7703", nil},
		// Membership flags the role does not use.
		{"shard", "-admin", "127.0.0.1:7650", nil},
		{"standalone", "-join", "127.0.0.1:7650", nil},
		{"router", "-join", "127.0.0.1:7650", []string{"-shards", "1=127.0.0.1:1"}},
		{"standalone", "-drain", "2", nil},
		{"shard", "-drain", "2", nil},
		{"router", "-drain", "2", []string{"-shards", "1=127.0.0.1:1"}},
		{"shard", "-advertise", "127.0.0.1:7703", nil},
		{"router", "-advertise", "127.0.0.1:7703", []string{"-shards", "1=127.0.0.1:1"}},
		{"standalone", "-shards", "1=127.0.0.1:1", nil},
		{"shard", "-shards", "1=127.0.0.1:1", nil},
		{"admin", "-shards", "1=127.0.0.1:1", []string{"-admin", "127.0.0.1:-1"}},
		{"admin", "-drain", "2", []string{"-admin", "127.0.0.1:-1", "-join", "3=127.0.0.1:7703"}},
		{"standalone", "-shard-id", "7", nil},
		{"router", "-shard-id", "7", []string{"-shards", "1=127.0.0.1:1"}},
	} {
		// An address nothing can bind: a run that got past the checks fails
		// with a listen error, not the flag's.
		os.Args = append([]string{"arbd-server", "-role", tc.role, "-addr", "127.0.0.1:-1", tc.flag, tc.value}, tc.more...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
		err := run()
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("%v: run() = %v, want the flag refused", os.Args[1:], err)
		}
	}

	os.Args = []string{"arbd-server", "-role", "router", "-pois", "0"}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	if err := run(); err == nil || strings.Contains(err.Error(), "-pois") {
		t.Fatalf("router with -pois 0: run() = %v, want only its missing -shards refused", err)
	}
}
