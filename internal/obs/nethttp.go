package obs

import (
	"net/http"
	"strings"
)

// The plane as a net/http handler: types only, so a binary that never
// calls Mux links no net/http server. Production serves the plane with
// Plane.Serve.

// Mux returns the plane as a net/http handler.
//
//arbd:test-api benchmark/bench_test.go serves the plane with httptest.NewServer
func (p *Plane) Mux() http.Handler { return p }

// ServeHTTP answers one net/http request from the plane's routes, with the
// status, headers and body the responder sends.
func (p *Plane) ServeHTTP(hw http.ResponseWriter, r *http.Request) {
	req := request{method: r.Method, path: r.URL.Path, query: r.URL.RawQuery}
	var w response
	p.routes.dispatch(&req, &w)
	h := hw.Header()
	h.Set("Content-Type", w.ctype)
	for _, line := range w.header {
		name, value, _ := strings.Cut(line, ": ")
		h.Set(name, value)
	}
	hw.WriteHeader(w.status)
	_, _ = hw.Write(w.body.Bytes())
}
