package obs

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"net/url"
	"strings"
	"testing"
	"time"
)

// servePlane serves p (with the profiling endpoints when pprof is set) on a
// loopback listener for the rest of the test, and returns its base URL and
// a client whose idle connections close with the test.
func servePlane(t *testing.T, p *Plane, pprof bool) (string, *http.Client) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln, pprof)
	client := &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	t.Cleanup(func() {
		ln.Close()
		client.CloseIdleConnections()
	})
	return "http://" + ln.Addr().String(), client
}

// fetch sends one request and records the whole response.
func fetch(t *testing.T, client *http.Client, method, url string) *httptest.ResponseRecorder {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	w := httptest.NewRecorder()
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestResponderMatchesAdapter checks the responder against net/http serving
// the same plane through Mux: for every endpoint, a bad query, an unknown
// path, a refused method and a HEAD, the status, content type and body
// agree.
func TestResponderMatchesAdapter(t *testing.T) {
	p, _, _ := planeFixture()
	base, client := servePlane(t, p, false)
	ref := httptest.NewServer(p.Mux())
	defer ref.Close()
	for _, c := range []struct{ method, path string }{
		{"GET", "/metrics"},
		{"GET", "/debug/arbd/metrics"},
		{"GET", "/debug/arbd/sessions"},
		{"GET", "/debug/arbd/streams"},
		{"GET", "/debug/arbd/slow"},
		{"GET", "/debug/arbd/slow?n=4"},
		{"GET", "/debug/arbd/slow?n=bogus"},
		{"GET", "/nope"},
		{"GET", "/debug/pprof/heap"}, // not on this listener
		{"POST", "/metrics"},
		{"HEAD", "/debug/arbd/sessions"},
	} {
		got := fetch(t, client, c.method, base+c.path)
		want := fetch(t, ref.Client(), c.method, ref.URL+c.path)
		if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
			got.Body.String() != want.Body.String() {
			t.Errorf("%s %s: responder %d %q %q, net/http %d %q %q", c.method, c.path,
				got.Code, got.Header().Get("Content-Type"), got.Body, want.Code, want.Header().Get("Content-Type"), want.Body)
		}
	}
}

// TestResponderClientCompat drives the responder with net/http's client:
// keep-alive across sequential requests, HEAD, 404 and 405, HTTP/1.0, and
// profiles go tool pprof can read.
func TestResponderClientCompat(t *testing.T) {
	p, _, _ := planeFixture()
	base, client := servePlane(t, p, true)

	t.Run("keepalive", func(t *testing.T) {
		reused := 0
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused++
			}
		}}
		for i := 0; i < 100; i++ {
			req, err := http.NewRequest("GET", base+"/debug/arbd/sessions", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"count": 1`)) {
				t.Fatalf("GET %d: %d %q %v", i, resp.StatusCode, body, err)
			}
		}
		if reused != 99 {
			t.Fatalf("%d of 100 sequential GETs reused the connection, want 99", reused)
		}
	})

	t.Run("head", func(t *testing.T) {
		get := fetch(t, client, "GET", base+"/debug/arbd/streams")
		resp, err := client.Head(base + "/debug/arbd/streams")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || len(body) != 0 || resp.ContentLength != int64(get.Body.Len()) ||
			resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("HEAD: %d, %d body bytes, Content-Length %d (GET body %d), type %q",
				resp.StatusCode, len(body), resp.ContentLength, get.Body.Len(), resp.Header.Get("Content-Type"))
		}
		// A HEAD that leaked its body would corrupt the next response on the
		// kept-alive connection.
		if again := fetch(t, client, "GET", base+"/debug/arbd/streams"); again.Body.String() != get.Body.String() {
			t.Fatalf("GET after HEAD: %q, want %q", again.Body, get.Body)
		}
	})

	t.Run("status", func(t *testing.T) {
		if w := fetch(t, client, "GET", base+"/unknown"); w.Code != 404 {
			t.Fatalf("unknown path: %d", w.Code)
		}
		w := fetch(t, client, "POST", base+"/metrics")
		if w.Code != 405 || w.Header().Get("Allow") != "GET, HEAD" {
			t.Fatalf("POST: %d, Allow %q", w.Code, w.Header().Get("Allow"))
		}
	})

	t.Run("http10", func(t *testing.T) {
		c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.WriteString(c, "GET /metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		// The responder closes after the response, so this reads to EOF.
		raw, err := io.ReadAll(c)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(raw)), nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 || resp.Proto != "HTTP/1.0" || !bytes.Contains(raw, []byte("\r\nConnection: close\r\n")) ||
			!bytes.Contains(body, []byte("arbd_server_frames_done 5")) {
			t.Fatalf("HTTP/1.0 response %q", raw)
		}
	})

	t.Run("pprof", func(t *testing.T) {
		for _, path := range []string{"/debug/pprof/heap", "/debug/pprof/allocs", "/debug/pprof/profile?seconds=1"} {
			w := fetch(t, client, "GET", base+path)
			if b := w.Body.Bytes(); w.Code != 200 || len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
				t.Fatalf("%s: %d, %d bytes, want a gzipped profile", path, w.Code, len(b))
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/octet-stream" {
				t.Fatalf("%s: content type %q", path, ct)
			}
		}
		for path, want := range map[string]string{
			"/debug/pprof/goroutine?debug=1":    "goroutine profile:",
			"/debug/pprof/heap?debug=1":         "heap profile:",
			"/debug/pprof/threadcreate?debug=1": "threadcreate profile:",
			"/debug/pprof/":                     "threadcreate",
			"/debug/pprof/trace?seconds=0.05":   "go 1.",
		} {
			if w := fetch(t, client, "GET", base+path); w.Code != 200 || !strings.Contains(w.Body.String(), want) {
				t.Fatalf("%s: %d, body does not hold %q", path, w.Code, want)
			}
		}
		if w := fetch(t, client, "GET", base+"/debug/pprof/symbol"); w.Code != 404 {
			t.Fatalf("/debug/pprof/symbol: %d, want 404", w.Code)
		}
	})

	t.Run("pprof-only", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go ServePprof(ln)
		url := "http://" + ln.Addr().String()
		if w := fetch(t, client, "GET", url+"/debug/pprof/cmdline"); w.Code != 200 || w.Body.Len() == 0 {
			t.Fatalf("cmdline: %d %q", w.Code, w.Body)
		}
		if w := fetch(t, client, "GET", url+"/metrics"); w.Code != 404 {
			t.Fatalf("/metrics on the pprof listener: %d, want 404", w.Code)
		}
	})
}

// TestResponderHostilePeers sends each connection something the responder
// refuses over a live listener. Each is answered 400 or 431, or the
// connection is closed, and the goroutine serving it returns.
func TestResponderHostilePeers(t *testing.T) {
	p, _, _ := planeFixture()
	s := newResponder(p.routes)
	s.read, s.idle = 200*time.Millisecond, 200*time.Millisecond
	for _, c := range []struct {
		name, send string
		want       int // status, or 0: closed without a response
	}{
		{"oversized head", "GET /metrics HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", maxHead) + "\r\n\r\n", 431},
		{"oversized header count", "GET /metrics HTTP/1.1\r\n" + strings.Repeat("X: y\r\n", maxHead/6+1) + "\r\n", 431},
		{"content-length body", "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello", 400},
		{"bad content-length", "GET /metrics HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
		{"transfer-encoding", "GET /metrics HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", 400},
		{"malformed request line", "GARBAGE\r\n\r\n", 400},
		{"unknown protocol", "GET /metrics HTTP/2.0\r\n\r\n", 400},
		{"relative target", "GET metrics HTTP/1.1\r\n\r\n", 400},
		{"folded header", "GET /metrics HTTP/1.1\r\nX: a\r\n b\r\n\r\n", 400},
		{"silent mid-head", "GET /metrics HTTP/1.1\r\nHost: x\r\n", 0},
		{"silent from the start", "", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				if conn, err := ln.Accept(); err == nil {
					s.serveConn(conn)
				}
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.WriteString(conn, c.send); err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(conn) // to EOF: the responder closes every case
			status := 0
			if len(got) > 0 {
				resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(got)), nil)
				if err != nil {
					t.Fatalf("unparseable response %q: %v", got, err)
				}
				status = resp.StatusCode
				if !bytes.Contains(got, []byte("\r\nConnection: close\r\n")) {
					t.Fatalf("refusal without Connection: close: %q", got)
				}
			}
			if status != c.want {
				t.Fatalf("status %d (%q), want %d", status, got, c.want)
			}
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("serving goroutine still running")
			}
		})
	}
}

// FuzzObsRequest throws arbitrary bytes at the request-head reader and
// parser. Neither may panic; a head read stays within maxHead; a parsed
// request names a token method and an absolute path; and the response the
// responder writes for it is one well-formed HTTP/1.x message.
func FuzzObsRequest(f *testing.F) {
	for _, s := range []string{
		"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n",
		"HEAD /debug/arbd/slow?n=4 HTTP/1.1\r\nConnection: close\r\n\r\n",
		"GET /debug/pprof/heap?debug=1 HTTP/1.0\n\n",
		"\r\nGET / HTTP/1.1\r\nUser-Agent: x\r\nAccept: */*\r\n\r\nGET / HTTP/1.1\r\n\r\n",
		"POST /metrics HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
		"GET /metrics HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
		"GET /%zz HTTP/1.1\r\n\r\n",
		"GET / HTTP/1.1\r\nX: a\r\n b\r\n\r\n",
		"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n",
		"GET / HTTP/1.1\r\n",
		"",
	} {
		f.Add([]byte(s))
	}
	rs := routes{"/metrics": func(w *response, q url.Values) { w.body.WriteString(q.Encode()) }}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := parseRequest(data); err != nil && err != errMalformed && err != errBody {
			t.Fatalf("parseRequest error %v is neither malformed nor body", err)
		}
		head, err := readHead(bufio.NewReaderSize(bytes.NewReader(data), maxHead))
		if err == errHeadTooLarge && len(data) < maxHead {
			t.Fatalf("%d bytes refused as too large", len(data))
		}
		if err != nil {
			return
		}
		if len(head) > maxHead {
			t.Fatalf("head of %d bytes read", len(head))
		}
		req, err := parseRequest(head)
		if err != nil {
			return
		}
		if !isToken(req.method) || !strings.HasPrefix(req.path, "/") || req.http10 && !req.close {
			t.Fatalf("parsed %+v", req)
		}
		var w response
		rs.dispatch(&req, &w)
		msg := appendResponse(nil, &req, &w, time.Now())
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(msg)), &http.Request{Method: req.method})
		if err != nil {
			t.Fatalf("response %q: %v", msg, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != w.status || resp.ContentLength != int64(w.body.Len()) ||
			req.method == "HEAD" && len(body) != 0 || req.method != "HEAD" && !bytes.Equal(body, w.body.Bytes()) {
			t.Fatalf("response %q read back as %d, length %d, body %q, %v", msg, resp.StatusCode, resp.ContentLength, body, err)
		}
	})
}
