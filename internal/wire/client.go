package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"ubiqos/internal/trace"
)

// Options tunes a Client's transport behavior. The zero value keeps the
// historical semantics: no per-call deadline, no retries.
type Options struct {
	// Timeout bounds one Call end to end: it is applied as a read/write
	// deadline on the connection, so a hung or wedged daemon fails the
	// call instead of blocking the client forever. 0 disables.
	Timeout time.Duration
	// Retries is how many times a Call that failed with a transport error
	// (timeout, connection reset, server gone) is re-dialed and re-sent.
	// Server-reported errors are never retried. Note the protocol gives
	// at-most-once semantics per attempt, so a retried request may execute
	// twice on the server; every operation is either idempotent or fails
	// fast on replay (e.g. a duplicate start rejects the session ID).
	Retries int
	// RetryBackoff is the wait before the first retry, doubling per
	// attempt. 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
}

// DefaultRetryBackoff is the initial retry delay when Options.RetryBackoff
// is unset.
const DefaultRetryBackoff = 50 * time.Millisecond

// Client speaks the protocol to a qosconfigd server. A Client is safe for
// concurrent use: Call serializes request/response pairs over the single
// connection, transparently re-dialing after transport failures.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	conn   net.Conn
	sc     *bufio.Scanner
	line   []byte // the request being sent, its buffer reused by every call
	broken bool   // the connection saw a transport error; re-dial before reuse
}

// dialTimeout bounds connecting to the server.
const dialTimeout = 5 * time.Second

// Dial connects to the server with default options.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, Options{})
}

// DialWith connects to the server with explicit transport options.
func DialWith(addr string, opts Options) (*Client, error) {
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	c := &Client{addr: addr, opts: opts}
	if err := c.redial(); err != nil {
		return nil, err
	}
	return c, nil
}

// redial (re)establishes the connection; callers hold c.mu (or are the
// constructor).
func (c *Client) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	c.conn, c.sc, c.broken = conn, sc, false
	return nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broken = true
	return c.conn.Close()
}

// Call sends one request and reads one response, honoring the client's
// timeout and retry options. A server-reported error is returned as a Go
// error with the response still populated; transport errors are retried
// up to Options.Retries times with doubling backoff.
func (c *Client) Call(req Request) (Response, error) {
	// Originate trace context here so the daemon's spans join a trace the
	// caller can correlate with; retries reuse the same trace ID. Only a
	// start's handler reads it, so no other op carries one.
	if req.Op == OpStart {
		if req.TraceID == "" {
			req.TraceID = trace.NewID()
		}
		if req.SpanID == "" {
			req.SpanID = "client-" + req.Op
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	backoff := c.opts.RetryBackoff
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if c.broken {
			if err := c.redial(); err != nil {
				lastErr = err
				continue
			}
		}
		resp, err, transport := c.callOnce(req)
		if !transport {
			return resp, err
		}
		c.broken = true
		lastErr = err
	}
	return Response{}, lastErr
}

// Verb runs one qosctl verb. The verb's op builds its request from flags,
// the command line's flag values by name, on top of req, which carries
// what flags cannot: an app graph, an instance. Verb calls the daemon and
// prints the reply to w: the op's JSON payload when the json flag is set
// and the op has one, else its text view. The reply is returned for the
// lines only the CLI prints.
func (c *Client) Verb(w io.Writer, verb string, flags map[string]string, req Request) (Response, error) {
	o := opsByVerb[verb]
	if o == nil {
		return Response{}, fmt.Errorf("unknown verb %q", verb)
	}
	for _, f := range o.need {
		if flags[f] == "" {
			return Response{}, fmt.Errorf("%s requires -%s", verb, strings.Join(o.need, " and -"))
		}
	}
	req = o.request(req, func(arg string) string { return flags[arg] })
	resp, err := c.Call(req)
	if err != nil {
		return resp, err
	}
	switch {
	case flags["json"] == "true" && o.json != nil:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return resp, enc.Encode(o.json(req, resp))
	case o.text != nil:
		_, err = io.WriteString(w, o.text(req, resp))
	}
	return resp, err
}

// callOnce runs one request/response exchange. transport reports whether
// the failure was at the transport layer (retriable) as opposed to a
// server-reported or protocol-level error.
func (c *Client) callOnce(req Request) (resp Response, err error, transport bool) {
	if c.opts.Timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	line, err := appendRequest(c.line[:0], req)
	c.line = line
	if err == nil {
		_, err = c.conn.Write(line)
	}
	if err != nil {
		return Response{}, fmt.Errorf("wire: send: %w", err), true
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Response{}, fmt.Errorf("wire: receive: %w", err), true
		}
		return Response{}, fmt.Errorf("wire: connection closed by server"), true
	}
	if resp, err = decodeResponse(c.sc.Bytes()); err != nil {
		return Response{}, fmt.Errorf("wire: decode response: %w", err), false
	}
	if !resp.OK {
		return resp, fmt.Errorf("wire: server error: %s", resp.Error), false
	}
	return resp, nil, false
}
