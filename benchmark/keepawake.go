package main

import (
	"context"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// keepAwakeFlag makes the benchmark binary run as a keep-awake spinner.
const keepAwakeFlag = "-keep-awake"

// startKeepAwake launches one lowest-priority busy loop per CPU for the
// length of a run and returns the function that stops and reaps them.
//
// The sandbox this benchmark is sized for is a small VM whose idle vCPUs are
// parked by the host: a server that is 40 % busy wakes a cold vCPU for every
// request, and the same frame then takes three times as long (3.7 ms against
// 1.3 ms in the same process when saturated) with nothing repeating from run
// to run. A nice-19 spinner per CPU keeps the vCPUs running without taking
// measurable time from anything else — the scheduler gives it about 1.5 % of
// a contended CPU — which is what booting with idle=poll would do on
// hardware one controls.
func startKeepAwake(ctx context.Context) (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var procs []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.CommandContext(ctx, self, keepAwakeFlag)
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if cmd.Start() == nil {
			procs = append(procs, cmd)
		}
	}
	return func() {
		for _, cmd := range procs {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}
}

var spinSink uint64

// keepAwake is the spinner process: one thread at the lowest priority that
// never sleeps. It ends when the benchmark kills it (or dies: Pdeathsig).
func keepAwake() {
	runtime.GOMAXPROCS(1)
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19)
	// A bound, in case the parent's kill is somehow lost.
	for end := time.Now().Add(10 * time.Minute); time.Now().Before(end); {
		for i := uint64(0); i < 1<<20; i++ {
			spinSink += i
		}
	}
}
