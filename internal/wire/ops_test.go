package wire

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestOpTableAgreesWithDocs checks the op table against everything that
// names its rows: every Op* constant has a row; the routes listed in
// NewHTTPHandler's and qosconfigd's docs are exactly the table's; every
// `qosctl <verb>` in README.md, DESIGN.md and qosctl's usage is a row's
// verb, and qosctl's usage names every verb.
func TestOpTableAgreesWithDocs(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	consts := 0
	for _, decl := range f.Decls {
		if gen, ok := decl.(*ast.GenDecl); ok && gen.Tok == token.CONST {
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				if !strings.HasPrefix(vs.Names[0].Name, "Op") {
					continue
				}
				consts++
				name, _ := strconv.Unquote(vs.Values[0].(*ast.BasicLit).Value)
				if opsByName[name] == nil {
					t.Errorf("%s = %q has no row in the op table", vs.Names[0].Name, name)
				}
			}
		}
	}
	if consts != len(ops) {
		t.Errorf("%d Op* constants, %d table rows", consts, len(ops))
	}

	var routes, bases []string
	verbs := map[string]bool{}
	for _, o := range ops {
		if o.route != "" {
			if o.json == nil || o.text == nil {
				t.Errorf("op %s has route %s but no JSON or text view", o.name, o.route)
			}
			routes = append(routes, o.route)
			bases = append(bases, o.route)
			if o.key != "" {
				routes = append(routes, o.route+"/<"+o.key+">")
			}
		}
		if o.verb != "" {
			verbs[o.verb] = true
		}
	}
	handlerDoc := between(t, "http.go", "// NewHTTPHandler exposes", "func NewHTTPHandler")
	sameSet(t, "NewHTTPHandler doc routes", docRoutes(handlerDoc, false), routes)
	daemonDoc := between(t, "../../cmd/qosconfigd/main.go", "", "package main")
	sameSet(t, "qosconfigd doc routes", docRoutes(daemonDoc, true), bases)

	named := regexp.MustCompile("qosctl ([a-z]+)")
	for _, doc := range []string{"../../README.md", "../../DESIGN.md"} {
		for _, m := range named.FindAllStringSubmatch(between(t, doc, "", ""), -1) {
			if !verbs[m[1]] {
				t.Errorf("%s names `qosctl %s`, which is no op's verb", doc, m[1])
			}
		}
	}
	usage := regexp.MustCompile(`(?m)^//\tqosctl ([a-z|]+)`)
	var used []string
	for _, m := range usage.FindAllStringSubmatch(between(t, "../../cmd/qosctl/main.go", "", "package main"), -1) {
		used = append(used, strings.Split(m[1], "|")...)
	}
	var all []string
	for v := range verbs {
		all = append(all, v)
	}
	sameSet(t, "qosctl usage verbs", used, all)
}

// between returns the text of file from the first line starting with
// from ("" = the start) up to the first line starting with to ("" = the
// end).
func between(t *testing.T, file, from, to string) string {
	t.Helper()
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if i := strings.Index(s, "\n"+from); from != "" && i >= 0 {
		s = s[i+1:]
	}
	if i := strings.Index(s, "\n"+to); to != "" && i >= 0 {
		s = s[:i]
	}
	return s
}

// handWritten are the HTTP routes outside the op table.
var handWritten = map[string]bool{"/metrics": true, "/healthz": true, "/traces": true, "/debug": true}

// docRoutes lists the op routes a doc comment names: each /path, and
// /path/<key> unless base, in which case the key is dropped.
func docRoutes(doc string, base bool) []string {
	re := regexp.MustCompile(`(?:^|[\s(])(/[a-z]+)(/<[a-z]+>)?`)
	var out []string
	for _, m := range re.FindAllStringSubmatch(doc, -1) {
		if handWritten[m[1]] {
			continue
		}
		if base {
			m[2] = ""
		}
		out = append(out, m[1]+m[2])
	}
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	set := func(xs []string) string {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return strings.Join(sortedKeys(m), " ")
	}
	if g, w := set(got), set(want); g != w {
		t.Errorf("%s = %s\nwant the op table's %s", what, g, w)
	}
}
