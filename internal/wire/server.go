package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"ubiqos/internal/domain"
	"ubiqos/internal/metrics"
)

// maxLineBytes bounds one request line (a large abstract graph fits well
// within this).
const maxLineBytes = 4 << 20

// Server exposes a domain over TCP.
type Server struct {
	dom *domain.Domain

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer wraps the domain.
func NewServer(dom *domain.Domain) (*Server, error) {
	if dom == nil {
		return nil, fmt.Errorf("wire: nil domain")
	}
	return &Server{dom: dom, conns: make(map[net.Conn]struct{})}, nil
}

// Listen binds the address and starts serving in background goroutines.
// It returns the bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("wire: server closed")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 64<<10), maxLineBytes)
	enc := json.NewEncoder(conn)
	var out []byte // a plain reply's line, its buffer reused
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var resp Response
		if req, err := decodeRequest(line); err != nil {
			s.dom.Metrics.Counter(metrics.WireBadLines).Inc()
			resp = Response{Error: "wire: bad request: " + err.Error()}
		} else {
			resp = s.Handle(req)
		}
		var err error
		if resp.plain() {
			if out, err = appendResponse(out[:0], &resp); err == nil {
				_, err = conn.Write(out)
			}
		} else {
			err = enc.Encode(resp)
		}
		if err != nil {
			return
		}
	}
	if err := scanner.Err(); err != nil {
		// An unscannable stream (most likely a line over maxLineBytes) is
		// reported back before the connection drops, so the client sees why.
		s.dom.Metrics.Counter(metrics.WireBadLines).Inc()
		enc.Encode(Response{Error: "wire: read: " + err.Error()})
	}
}

// Handle dispatches one request; it is exported so the daemon can be
// exercised without a socket. Every call is counted and timed per op
// under wire_requests_total / wire_request_errors_total /
// wire_request_duration_seconds.
func (s *Server) Handle(req Request) Response {
	o := opsByName[req.Op]
	if o == nil {
		o = &unknownOp
	}
	start := time.Now()
	resp, _ := s.dispatch(o, req)
	m := s.dom.Metrics
	m.Counter(o.requests).Inc()
	if !resp.OK {
		m.Counter(o.errors).Inc()
	}
	m.Histogram(o.latency).Observe(time.Since(start))
	return resp
}

// dispatch runs one op's handler and folds its error into the reply.
func (s *Server) dispatch(o *op, req Request) (Response, error) {
	resp, err := o.handle(s, req)
	if err != nil {
		resp.OK, resp.Error = false, err.Error()
		return resp, err
	}
	resp.OK = true
	return resp, nil
}
