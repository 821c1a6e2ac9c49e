package ubiqos

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The census ceilings: the exported identifiers and option fields the
// non-test code under internal/ and cmd/ may hold at most. Lower a ceiling
// when a change removes some; a change that must raise one says why in its
// description.
const (
	censusMaxExported     = 879
	censusMaxOptionFields = 58
)

// censusCount is one package's share of the census.
type censusCount struct {
	lines, exported, options int
}

// TestCensus walks the non-test Go files under internal/ and cmd/ and
// counts, per package, the lines, the exported identifiers (top-level
// funcs, methods on exported types, types, consts and vars) and the
// exported fields of option structs (a struct type named Config, Params,
// Thresholds or ending in Options), and fails if either of the last two
// totals rises above its ceiling. Run it with -v to read the table.
func TestCensus(t *testing.T) {
	pkgs := map[string]*censusCount{}
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			c := pkgs[filepath.Dir(path)]
			if c == nil {
				c = &censusCount{}
				pkgs[filepath.Dir(path)] = c
			}
			return censusFile(path, c)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 0, len(pkgs))
	for name := range pkgs {
		names = append(names, name)
	}
	sort.Strings(names)
	var total censusCount
	internalLines := 0
	t.Logf("%-28s %7s %8s %7s", "package", "lines", "exported", "options")
	for _, name := range names {
		c := pkgs[name]
		t.Logf("%-28s %7d %8d %7d", name, c.lines, c.exported, c.options)
		total.lines += c.lines
		total.exported += c.exported
		total.options += c.options
		if strings.HasPrefix(name, "internal") {
			internalLines += c.lines
		}
	}
	t.Logf("%-28s %7d %8d %7d (internal/ lines: %d)", "total", total.lines, total.exported, total.options, internalLines)
	if total.exported > censusMaxExported {
		t.Errorf("exported identifiers: %d, ceiling %d", total.exported, censusMaxExported)
	}
	if total.options > censusMaxOptionFields {
		t.Errorf("option fields: %d, ceiling %d", total.options, censusMaxOptionFields)
	}
}

// censusFile adds one source file to its package's count.
func censusFile(path string, c *censusCount) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	c.lines += strings.Count(string(src), "\n")
	f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			if decl.Recv == nil || ast.IsExported(receiverType(decl.Recv.List[0].Type)) {
				c.exported++
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						c.exported++
					}
					if st, ok := spec.Type.(*ast.StructType); ok && isOptionStruct(spec.Name.Name) {
						c.options += exportedFields(st)
					}
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						if name.IsExported() {
							c.exported++
						}
					}
				}
			}
		}
	}
	return nil
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func isOptionStruct(name string) bool {
	switch name {
	case "Config", "Params", "Thresholds":
		return true
	}
	return strings.HasSuffix(name, "Options")
}

func exportedFields(st *ast.StructType) int {
	n := 0
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if name.IsExported() {
				n++
			}
		}
	}
	return n
}
