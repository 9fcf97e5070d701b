package telemetry

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestObservabilityCatalog holds docs/observability.md to the code, in
// both directions: every metric name the module's non-test code passes
// to Counter, Gauge or Histogram and every journal Kind constant has a
// row in the doc's catalog tables, and every catalog row names
// something the code emits.
func TestObservabilityCatalog(t *testing.T) {
	metrics := codeMetrics(t, "../..")
	kinds := journalKinds(t, ".")
	docMetrics, docKinds := docCatalog(t, "../../docs/observability.md")
	if len(metrics) == 0 || len(kinds) == 0 {
		t.Fatalf("scan found %d metrics and %d journal kinds", len(metrics), len(kinds))
	}
	compareCatalog(t, "metric", metrics, docMetrics)
	compareCatalog(t, "journal kind", kinds, docKinds)
}

func compareCatalog(t *testing.T, what string, code, doc map[string]bool) {
	t.Helper()
	for name := range code {
		if !doc[name] {
			t.Errorf("%s %s is emitted by the code but missing from docs/observability.md", what, name)
		}
	}
	for name := range doc {
		if !code[name] {
			t.Errorf("%s %s is catalogued in docs/observability.md but nothing emits it", what, name)
		}
	}
}

// codeMetrics scans every non-test Go file of the module under root
// (bench/ is its own module) for the names passed to Counter, Gauge
// and Histogram. A name is a string literal, a concatenation, an
// fmt.Sprintf whose %d becomes the doc's <i>, or a parameter of a
// helper function literal in the same file, resolved through the
// literal arguments of that helper's calls.
func codeMetrics(t *testing.T, root string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		params := paramBindings(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Counter" && sel.Sel.Name != "Gauge" && sel.Sel.Name != "Histogram") {
				return true
			}
			found := metricNames(call.Args[0], params)
			if len(found) == 0 {
				t.Errorf("%s: metric name is not one the catalog check can read", fset.Position(call.Pos()))
			}
			for _, name := range found {
				names[name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// paramBindings maps the parameters of a file's helper functions
// (function literals bound to a name) to the string literals the file
// passes for them.
func paramBindings(file *ast.File) map[string][]string {
	helpers := map[string][]string{} // helper name → parameter names
	ast.Inspect(file, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			id, isIdent := assign.Lhs[i].(*ast.Ident)
			if lit, ok := rhs.(*ast.FuncLit); ok && isIdent {
				for _, field := range lit.Type.Params.List {
					for _, p := range field.Names {
						helpers[id.Name] = append(helpers[id.Name], p.Name)
					}
				}
			}
		}
		return true
	})
	bound := map[string][]string{}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return true
		}
		params := helpers[id.Name]
		for i, arg := range call.Args {
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING && i < len(params) {
				s, _ := strconv.Unquote(lit.Value)
				bound[params[i]] = append(bound[params[i]], s)
			}
		}
		return true
	})
	return bound
}

// metricNames evaluates a metric-name expression to every name it can
// take; nil means it is not a form the catalog check can read.
func metricNames(e ast.Expr, params map[string][]string) []string {
	switch e := e.(type) {
	case *ast.BasicLit:
		if s, err := strconv.Unquote(e.Value); err == nil && e.Kind == token.STRING {
			return []string{s}
		}
	case *ast.ParenExpr:
		return metricNames(e.X, params)
	case *ast.Ident:
		return params[e.Name]
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			return nil
		}
		var out []string
		for _, x := range metricNames(e.X, params) {
			for _, y := range metricNames(e.Y, params) {
				out = append(out, x+y)
			}
		}
		return out
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" && len(e.Args) > 0 {
			if format := metricNames(e.Args[0], nil); len(format) == 1 {
				return []string{strings.ReplaceAll(format[0], "%d", "<i>")}
			}
		}
	}
	return nil
}

// journalKinds reads the non-empty Kind* string constants of the
// package in dir; the empty KindDecision is the plain classification
// record, which the doc describes as the absent kind.
func journalKinds(t *testing.T, dir string) map[string]bool {
	t.Helper()
	kinds := map[string]bool{}
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.CONST {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Kind") || i >= len(vs.Values) {
						continue
					}
					if v := metricNames(vs.Values[i], nil); len(v) == 1 && v[0] != "" {
						kinds[v[0]] = true
					}
				}
			}
		}
	}
	return kinds
}

var (
	backticked = regexp.MustCompile("`([^`]+)`")
	braces     = regexp.MustCompile(`\{([^}]*)\}`)
)

// docCatalog reads the first column of the doc's metric tables (header
// "Metric") and journal-kind tables (header "`kind`"), expanding the
// doc's shorthands: `a` / `b` in one cell names two entries, and
// a_{x,y}_b names a_x_b and a_y_b.
func docCatalog(t *testing.T, path string) (metrics, kinds map[string]bool) {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	metrics, kinds = map[string]bool{}, map[string]bool{}
	var table map[string]bool
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, "|") {
			table = nil
			continue
		}
		first := strings.TrimSpace(strings.Split(line, "|")[1])
		switch {
		case first == "Metric":
			table = metrics
			continue
		case first == "`kind`":
			table = kinds
			continue
		case table == nil || strings.HasPrefix(first, "---"):
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(first, -1) {
			for _, name := range expandBraces(m[1]) {
				table[name] = true
			}
		}
	}
	return metrics, kinds
}

func expandBraces(s string) []string {
	loc := braces.FindStringSubmatchIndex(s)
	if loc == nil {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[loc[2]:loc[3]], ",") {
		out = append(out, expandBraces(s[:loc[0]]+alt+s[loc[1]:])...)
	}
	return out
}
