package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
)

// clockTick is USER_HZ: the unit of the CPU fields in /proc/<pid>/stat. It
// is 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStat extracts user+system CPU time from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseProcStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", b)
	}
	f := bytes.Fields(b[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want >= 13", len(f))
	}
	utime, err1 := strconv.ParseUint(string(f[11]), 10, 64)
	stime, err2 := strconv.ParseUint(string(f[12]), 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad cpu fields %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseVmHWM extracts the peak resident set (kB) from /proc/<pid>/status.
func parseVmHWM(b []byte) (uint64, error) {
	for _, line := range bytes.Split(b, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) < 1 {
			break
		}
		return strconv.ParseUint(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(b)
}

func procPeakRSSKB(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// selfCPU is the generator's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
