package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPRoutes checks every GET route backed by a wire op: its JSON and
// text renderings, the 400 for an empty path key or a malformed query,
// the 404 for an unknown key, HEAD, and the 405 for a write.
func TestHTTPRoutes(t *testing.T) {
	srv, _ := startServer(t)
	web := httptest.NewServer(NewHTTPHandler(srv.dom))
	t.Cleanup(web.Close)
	startLedgerSession(t, srv, "r-1")

	const (
		jsonType = "application/json"
		textType = "text/plain; charset=utf-8"
	)
	cases := []struct {
		path   string
		status int
		ctype  string
	}{
		{"/flight", 200, jsonType},
		{"/flight?format=text", 200, textType},
		{"/flight/r-1", 200, jsonType},
		{"/flight/r-1?format=text", 200, textType},
		{"/flight/", 400, jsonType},
		{"/flight/ghost", 404, jsonType},
		{"/ledger", 200, jsonType},
		{"/ledger?format=text", 200, textType},
		{"/ledger/r-1", 200, jsonType},
		{"/ledger/r-1?format=text", 200, textType},
		{"/ledger/", 400, jsonType},
		{"/ledger/ghost", 404, jsonType},
		{"/explain", 200, jsonType},
		{"/explain?format=text", 200, textType},
		{"/explain/r-1", 200, jsonType},
		{"/explain/r-1?format=text", 200, textType},
		{"/explain/", 400, jsonType},
		{"/explain/ghost", 404, jsonType},
		{"/incidents", 200, jsonType},
		{"/incidents?format=text", 200, textType},
		{"/incidents/", 400, jsonType},
		{"/incidents/INC-999", 404, jsonType},
		{"/scorecard", 200, jsonType},
		{"/scorecard?format=text", 200, textType},
		{"/scorecard?class=media&window=1h", 200, jsonType},
		{"/scorecard?class=ghost", 404, jsonType},
		{"/scorecard?window=soon", 400, jsonType},
		{"/slo", 200, jsonType},
		{"/slo?format=text", 200, textType},
		{"/timeseries", 200, jsonType},
		{"/timeseries?format=text", 200, textType},
		{"/timeseries?metric=space_headroom_ratio&window=1h", 200, jsonType},
		{"/timeseries?metric=nope", 404, jsonType},
		{"/timeseries?metric=space_headroom_ratio&window=soon", 400, jsonType},
		{"/saturation", 200, jsonType},
		{"/saturation?format=text", 200, textType},
		{"/admission", 200, jsonType},
		{"/admission?format=text", 200, textType},
		{"/admission?class=voice", 200, jsonType},
		{"/traces?n=0", 400, jsonType},
	}
	for _, c := range cases {
		resp, err := http.Get(web.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("GET %s status = %d, want %d: %s", c.path, resp.StatusCode, c.status, body)
		}
		if got := resp.Header.Get("Content-Type"); got != c.ctype {
			t.Errorf("GET %s Content-Type = %q, want %q", c.path, got, c.ctype)
		}
		switch {
		case c.ctype == textType && len(body) == 0:
			t.Errorf("GET %s: empty text rendering", c.path)
		case c.ctype == jsonType && !json.Valid(body):
			t.Errorf("GET %s: body is not JSON: %s", c.path, body)
		case c.status != 200:
			var r Response
			if json.Unmarshal(body, &r) != nil || r.OK || r.Error == "" {
				t.Errorf("GET %s error body = %s, want ok=false and an error", c.path, body)
			}
		}
		if c.status != 200 {
			continue
		}
		if resp, err = http.Head(web.URL + c.path); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("HEAD %s status = %d, want 200", c.path, resp.StatusCode)
		}
		path, _, _ := strings.Cut(c.path, "?")
		if resp, err = http.Post(web.URL+path, "application/json", strings.NewReader("{}")); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
			t.Errorf("POST %s = %d Allow %q, want 405 and GET, HEAD", path, resp.StatusCode, resp.Header.Get("Allow"))
		}
	}
}

// TestHTTPMatchesVerbJSON: a route's JSON body is the bytes `qosctl -json`
// prints for the same op, since one picker serves both.
func TestHTTPMatchesVerbJSON(t *testing.T) {
	srv, addr := startServer(t)
	web := httptest.NewServer(NewHTTPHandler(srv.dom))
	t.Cleanup(web.Close)
	startLedgerSession(t, srv, "r-1")
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		path, verb string
		flags      map[string]string
	}{
		{"/flight", "flight", nil},
		{"/flight/r-1", "flight", map[string]string{"session": "r-1"}},
		{"/ledger/r-1", "ledger", map[string]string{"session": "r-1"}},
		{"/explain/r-1", "explain", map[string]string{"session": "r-1"}},
		{"/scorecard?class=media", "report", map[string]string{"class": "media"}},
		{"/timeseries", "timeseries", nil},
	} {
		flags := map[string]string{"json": "true"}
		for k, v := range tc.flags {
			flags[k] = v
		}
		var cli bytes.Buffer
		if _, err := c.Verb(&cli, tc.verb, flags, Request{}); err != nil {
			t.Fatalf("qosctl %s: %v", tc.verb, err)
		}
		if body := httpGet(t, web.URL+tc.path); body != cli.String() {
			t.Errorf("GET %s =\n%s\nqosctl %s -json =\n%s", tc.path, body, tc.verb, cli.String())
		}
	}
}
