package obs

import (
	"fmt"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// The profiling endpoints, served from runtime/pprof and runtime/trace
// directly; go tool pprof and go tool trace read them. Profiles carry their
// own symbols, so there is no /debug/pprof/symbol.

// pprofProfiles are the runtime's named profiles, each at
// /debug/pprof/<name>?debug=N.
var pprofProfiles = []string{"allocs", "block", "goroutine", "heap", "mutex", "threadcreate"}

// addPprof adds the profiling endpoints to rs.
func addPprof(rs routes) {
	rs["/debug/pprof/"] = pprofIndex
	rs["/debug/pprof/cmdline"] = pprofCmdline
	rs["/debug/pprof/profile"] = pprofCPU
	rs["/debug/pprof/trace"] = pprofTrace
	for _, name := range pprofProfiles {
		rs["/debug/pprof/"+name] = pprofNamed(name)
	}
}

// pprofIndex lists the endpoints as plain text.
func pprofIndex(w *response, _ url.Values) {
	fmt.Fprintf(w, "/debug/pprof/: profiles for go tool pprof\n\n")
	for _, name := range pprofProfiles {
		fmt.Fprintf(w, "%-13s %6d  ?debug=N (0: gzipped proto; 1, 2: text)\n", name, pprof.Lookup(name).Count())
	}
	fmt.Fprintf(w, "%-13s %6s  ?seconds=N CPU profile (default 30)\n", "profile", "")
	fmt.Fprintf(w, "%-13s %6s  ?seconds=N execution trace (default 1)\n", "trace", "")
	fmt.Fprintf(w, "%-13s %6s  the command line, NUL-separated\n", "cmdline", "")
}

func pprofCmdline(w *response, _ url.Values) {
	w.body.WriteString(strings.Join(os.Args, "\x00"))
}

// attachment marks w as a binary profile download named name.
func attachment(w *response, name string) {
	w.ctype = "application/octet-stream"
	w.header = append(w.header, `Content-Disposition: attachment; filename="`+name+`"`)
}

// pprofNamed serves one named profile; ?gc=1 on heap collects first.
func pprofNamed(name string) handler {
	return func(w *response, q url.Values) {
		debug, _ := strconv.Atoi(q.Get("debug"))
		if name == "heap" && q.Get("gc") != "" && q.Get("gc") != "0" {
			runtime.GC()
		}
		if debug == 0 {
			attachment(w, name)
		}
		if err := pprof.Lookup(name).WriteTo(w, debug); err != nil {
			w.error(500, "profile "+name+": "+err.Error())
		}
	}
}

// pprofCPU records a CPU profile for ?seconds=N (default 30).
func pprofCPU(w *response, q url.Values) {
	sec, err := strconv.ParseInt(q.Get("seconds"), 10, 64)
	if err != nil || sec <= 0 {
		sec = 30
	}
	if err := pprof.StartCPUProfile(w); err != nil {
		w.error(500, "could not enable CPU profiling: "+err.Error())
		return
	}
	time.Sleep(time.Duration(sec) * time.Second)
	pprof.StopCPUProfile()
	attachment(w, "profile")
}

// pprofTrace records an execution trace for ?seconds=N (default 1).
func pprofTrace(w *response, q url.Values) {
	sec, err := strconv.ParseFloat(q.Get("seconds"), 64)
	if err != nil || !(sec > 0) {
		sec = 1
	}
	if err := trace.Start(w); err != nil {
		w.error(500, "could not enable tracing: "+err.Error())
		return
	}
	time.Sleep(time.Duration(sec * float64(time.Second)))
	trace.Stop()
	attachment(w, "trace")
}
