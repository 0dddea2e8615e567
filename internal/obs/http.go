package obs

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// The plane's HTTP/1.1 responder, written on package net: it answers the
// scrapers and tools that read the plane (Prometheus, curl, arbd-top,
// go tool pprof) and nothing more. GET and HEAD only; keep-alive until the
// peer sends Connection: close or speaks HTTP/1.0; every response is
// buffered whole and leaves in one write with its Content-Length. A request
// body, chunking, TLS and HTTP/2 are not served, so the process carries none
// of net/http's server.

const (
	// maxHead caps a request head: request line, headers and blank line.
	maxHead = 16 << 10
	// readTimeout bounds a request head from its first byte to its blank
	// line; idleTimeout bounds the wait for the next request on a kept-alive
	// connection; writeTimeout bounds writing one response.
	readTimeout  = 10 * time.Second
	idleTimeout  = 2 * time.Minute
	writeTimeout = 10 * time.Second
	// acceptBackoff spaces Accept retries after an error other than the
	// listener's close (a full file table), so the loop outlives it.
	acceptBackoff = 50 * time.Millisecond
	// maxConns bounds the connections served at once: a peer opening more
	// waits in the listen backlog, and costs at most maxConns goroutines
	// and head buffers.
	maxConns = 64
)

var (
	errMalformed    = errors.New("obs: malformed request head")
	errBody         = errors.New("obs: request bodies are not served")
	errHeadTooLarge = errors.New("obs: request head too large")
)

// response is one endpoint's answer, buffered whole so it is written once
// with its Content-Length.
type response struct {
	status int
	ctype  string
	header []string // further "Name: value" lines
	body   bytes.Buffer
}

func (w *response) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *response) reset() {
	w.status, w.ctype, w.header = 200, "text/plain; charset=utf-8", w.header[:0]
	w.body.Reset()
}

// error replaces the answer with a plain-text error, as net/http's Error
// writes it.
func (w *response) error(status int, msg string) {
	w.reset()
	w.status = status
	w.header = append(w.header, "X-Content-Type-Options: nosniff")
	w.body.WriteString(msg)
	w.body.WriteByte('\n')
}

// handler answers one GET or HEAD request from its query.
type handler func(w *response, q url.Values)

// routes maps exact request paths to their handlers.
type routes map[string]handler

// dispatch answers req from rs into w.
func (rs routes) dispatch(req *request, w *response) {
	w.reset()
	h, ok := rs[req.path]
	switch {
	case !ok:
		w.error(404, "404 page not found")
	case req.method != "GET" && req.method != "HEAD":
		w.error(405, "method not allowed")
		w.header = append(w.header, "Allow: GET, HEAD")
	default:
		q, _ := url.ParseQuery(req.query) // as net/http's URL.Query: keep what parses
		h(w, q)
	}
}

// request is what the responder reads of a request head.
type request struct {
	method string
	path   string // unescaped
	query  string // raw
	http10 bool
	close  bool // the connection ends after the response
}

// readHead reads one request head from br, through its blank line. Blank
// lines before the request line are skipped. A head over maxHead bytes,
// skipped lines included, is errHeadTooLarge; br must buffer maxHead bytes.
func readHead(br *bufio.Reader) ([]byte, error) {
	var head []byte
	n := 0
	for {
		line, err := br.ReadSlice('\n')
		n += len(line)
		if n > maxHead || err == bufio.ErrBufferFull {
			return nil, errHeadTooLarge
		}
		if err != nil {
			return nil, err
		}
		blank := len(line) == 1 || len(line) == 2 && line[0] == '\r'
		if blank && head == nil {
			continue
		}
		head = append(head, line...)
		if blank {
			return head, nil
		}
	}
}

// parseRequest parses a request head: the request line, then header lines
// through a blank one, each ending in CRLF or LF. It refuses what the
// responder does not serve: a protocol other than HTTP/1.0 and 1.1, a
// target other than an absolute path, and a request body (errBody: a
// non-zero Content-Length or any Transfer-Encoding).
func parseRequest(head []byte) (request, error) {
	var req request
	lines := strings.Split(string(head), "\n")
	if len(lines) < 3 || lines[len(lines)-1] != "" || strings.TrimSuffix(lines[len(lines)-2], "\r") != "" {
		return req, errMalformed
	}
	method, rest, ok1 := strings.Cut(strings.TrimSuffix(lines[0], "\r"), " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || !isToken(method) || target == "" || target[0] != '/' || hasCtl(target) {
		return req, errMalformed
	}
	switch proto {
	case "HTTP/1.1":
	case "HTTP/1.0":
		req.http10, req.close = true, true
	default:
		return req, errMalformed
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return req, errMalformed
	}
	req.method, req.path, req.query = method, u.Path, u.RawQuery

	var body bool
	for _, line := range lines[1 : len(lines)-2] {
		line = strings.TrimSuffix(line, "\r")
		name, value, ok := strings.Cut(line, ":")
		if !ok || !isToken(name) || hasCtl(value) {
			return req, errMalformed // obs-fold lines start with blanks: not a token
		}
		value = strings.Trim(value, " \t")
		switch {
		case strings.EqualFold(name, "Content-Length"):
			n, err := strconv.ParseUint(value, 10, 63)
			if err != nil {
				return req, errMalformed
			}
			body = body || n > 0
		case strings.EqualFold(name, "Transfer-Encoding"):
			body = true
		case strings.EqualFold(name, "Connection"):
			for _, opt := range strings.Split(value, ",") {
				req.close = req.close || strings.EqualFold(strings.TrimSpace(opt), "close")
			}
		}
	}
	if body {
		return req, errBody
	}
	return req, nil
}

// isToken reports whether s is a non-empty RFC 9110 token.
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return true
}

// hasCtl reports whether s holds a control byte other than a tab.
func hasCtl(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' && c != '\t' || c == 0x7f {
			return true
		}
	}
	return false
}

// statusText names the statuses the responder sends.
func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 431:
		return "Request Header Fields Too Large"
	}
	return "Internal Server Error"
}

// appendResponse appends w's status line, headers and — unless req is a
// HEAD — body, as one HTTP/1.x message.
func appendResponse(b []byte, req *request, w *response, now time.Time) []byte {
	if req.http10 {
		b = append(b, "HTTP/1.0 "...)
	} else {
		b = append(b, "HTTP/1.1 "...)
	}
	b = strconv.AppendInt(b, int64(w.status), 10)
	b = append(b, ' ')
	b = append(b, statusText(w.status)...)
	b = append(b, "\r\nContent-Type: "...)
	b = append(b, w.ctype...)
	b = append(b, "\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(w.body.Len()), 10)
	b = append(b, "\r\nDate: "...)
	b = now.UTC().AppendFormat(b, "Mon, 02 Jan 2006 15:04:05 GMT")
	for _, h := range w.header {
		b = append(b, "\r\n"...)
		b = append(b, h...)
	}
	if req.close {
		b = append(b, "\r\nConnection: close"...)
	}
	b = append(b, "\r\n\r\n"...)
	if req.method != "HEAD" {
		b = append(b, w.body.Bytes()...)
	}
	return b
}

// responder answers one route table on accepted connections.
type responder struct {
	routes routes
	read   time.Duration // readTimeout; tests shorten it
	idle   time.Duration // idleTimeout
}

func newResponder(rs routes) *responder {
	return &responder{routes: rs, read: readTimeout, idle: idleTimeout}
}

// serve answers each connection ln accepts on its own goroutine, at most
// maxConns at once, until ln is closed.
func (s *responder) serve(ln net.Listener) error {
	slots := make(chan struct{}, maxConns)
	for {
		slots <- struct{}{}
		c, err := ln.Accept()
		if err != nil {
			<-slots
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			time.Sleep(acceptBackoff)
			continue
		}
		go func() {
			defer func() { <-slots }()
			s.serveConn(c)
		}()
	}
}

// serveConn answers requests on c until the peer closes, asks to close,
// falls silent past a deadline, or sends a head it refuses: 431 for an
// oversized head, 400 for a malformed one or one announcing a body.
func (s *responder) serveConn(c net.Conn) {
	defer c.Close()
	br := bufio.NewReaderSize(c, maxHead)
	var w response
	var out []byte
	for {
		_ = c.SetReadDeadline(time.Now().Add(s.idle))
		if _, err := br.Peek(1); err != nil {
			return
		}
		_ = c.SetReadDeadline(time.Now().Add(s.read))
		var req request
		head, err := readHead(br)
		if err == nil {
			req, err = parseRequest(head)
		}
		switch {
		case err == nil:
			s.routes.dispatch(&req, &w)
		case err == errHeadTooLarge:
			w.error(431, "431 Request Header Fields Too Large")
		case err == errMalformed || err == errBody:
			w.error(400, "400 Bad Request")
		default:
			return // the peer went away or fell silent mid-head
		}
		if err != nil {
			req.method, req.close = "", true
		}
		out = appendResponse(out[:0], &req, &w, time.Now())
		_ = c.SetWriteDeadline(time.Now().Add(writeTimeout))
		if _, err := c.Write(out); err != nil {
			return
		}
		if req.close {
			hangUp(c)
			return
		}
	}
}

// hangUp half-closes c and discards what the peer still sends for a
// moment, so a peer still writing (a refused body) reads the response
// instead of a connection reset.
func hangUp(c net.Conn) {
	tc, ok := c.(*net.TCPConn)
	if !ok || tc.CloseWrite() != nil {
		return
	}
	_ = c.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
	_, _ = io.Copy(io.Discard, io.LimitReader(c, 256<<10))
}
