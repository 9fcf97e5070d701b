package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestNoWriteOnlyFields fails on state nothing reads: an unexported
// struct field of the module that its package's non-test code assigns —
// with =, :=, ++/--, or as a composite-literal key — but never otherwise
// selects. Fields are keyed by name within each package, so a read of
// any field of that name keeps them all. Tests do not count as readers:
// a field only a test reads is a test fixture living in program code.
// bench/ is its own module.
func TestNoWriteOnlyFields(t *testing.T) {
	pkgs := scanFieldUse(t, ".")
	if len(pkgs) == 0 {
		t.Fatal("scan found no packages")
	}
	var found []string
	for dir, use := range pkgs {
		for name := range use.declared {
			if use.writes[name] && !use.reads[name] {
				found = append(found, dir+": "+name)
			}
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is assigned but never read; delete the field", f)
	}
}

// fieldUse records, for one package, the unexported field names its
// struct types declare and how the package's code selects each name.
type fieldUse struct {
	declared, writes, reads map[string]bool
}

// scanFieldUse returns the field use of each package directory under
// root.
func scanFieldUse(t *testing.T, root string) map[string]*fieldUse {
	t.Helper()
	pkgs := map[string]*fieldUse{}
	walkModule(t, root, func(_ *token.FileSet, path string, file *ast.File) {
		dir := filepath.Dir(path)
		use := pkgs[dir]
		if use == nil {
			use = &fieldUse{declared: map[string]bool{}, writes: map[string]bool{}, reads: map[string]bool{}}
			pkgs[dir] = use
		}
		use.add(file)
	})
	return pkgs
}

// walkModule parses every non-test Go file under root, skipping bench/
// (its own module), testdata and hidden directories, and hands each to
// visit with its file set and path.
func walkModule(t *testing.T, root string, visit func(fset *token.FileSet, path string, file *ast.File)) {
	t.Helper()
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
		visit(fset, path, file)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// add records one file's declarations, writes and reads.
func (u *fieldUse) add(file *ast.File) {
	// Selectors that are the target of an assignment; every other
	// selector is a read.
	written := map[*ast.SelectorExpr]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, f := range n.Fields.List {
				for _, name := range f.Names {
					if !name.IsExported() && name.Name != "_" {
						u.declared[name.Name] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := n.X.(*ast.SelectorExpr); ok {
				written[sel] = true
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						u.writes[key.Name] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if written[n] {
				u.writes[n.Sel.Name] = true
			} else {
				u.reads[n.Sel.Name] = true
			}
		}
		return true
	})
}

// TestNoTelemetryBranches keeps instrumented code to one idiom: an
// instrument set is built from a possibly nil registry, whose nil
// instruments record as no-ops, and call sites record unconditionally
// (docs/observability.md §Turning it on). It fails on an
// `if X != nil {` or `if c && X != nil {` whose body only calls
// Inc/Add/Set/Observe on X or on a field of X that is declared as a
// telemetry instrument: a second code path for "telemetry off". A guard
// that also skips work done for the record, such as a host-clock read
// in an argument, is not flagged.
func TestNoTelemetryBranches(t *testing.T) {
	type parsed struct {
		fset *token.FileSet
		file *ast.File
	}
	pkgs := map[string][]parsed{}
	walkModule(t, ".", func(fset *token.FileSet, path string, file *ast.File) {
		dir := filepath.Dir(path)
		pkgs[dir] = append(pkgs[dir], parsed{fset, file})
	})
	var found []string
	for _, files := range pkgs {
		instruments := map[string]bool{}
		for _, f := range files {
			addInstrumentFields(f.file, instruments)
		}
		for _, f := range files {
			ast.Inspect(f.file, func(n ast.Node) bool {
				if s, ok := n.(*ast.IfStmt); ok && s.Else == nil && onlyRecords(s.Body, nilTested(s.Cond), instruments) {
					found = append(found, f.fset.Position(s.Pos()).String())
				}
				return true
			})
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s: guard around a record; record unconditionally on the possibly nil instrument", f)
	}
}

// addInstrumentFields adds to names every struct field of file declared
// as a *telemetry.Counter, Gauge or Histogram, or an array or slice of
// them. Fields are keyed by name within a package, as in fieldUse.
func addInstrumentFields(file *ast.File, names map[string]bool) {
	ast.Inspect(file, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, f := range st.Fields.List {
			typ := f.Type
			if arr, ok := typ.(*ast.ArrayType); ok {
				typ = arr.Elt
			}
			if star, ok := typ.(*ast.StarExpr); ok {
				switch types.ExprString(star.X) {
				case "telemetry.Counter", "telemetry.Gauge", "telemetry.Histogram":
					for _, name := range f.Names {
						names[name.Name] = true
					}
				}
			}
		}
		return true
	})
}

// nilTested returns the expressions cond requires to be non-nil: X for
// `X != nil`, and each such operand of a chain of &&.
func nilTested(cond ast.Expr) []string {
	b, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	switch b.Op {
	case token.LAND:
		return append(nilTested(b.X), nilTested(b.Y)...)
	case token.NEQ:
		if id, ok := b.Y.(*ast.Ident); ok && id.Name == "nil" {
			return []string{types.ExprString(b.X)}
		}
	}
	return nil
}

// recordMethods are the telemetry instruments' record calls.
var recordMethods = map[string]bool{"Inc": true, "Add": true, "Set": true, "Observe": true}

// onlyRecords reports whether body records on an instrument field that
// is, or is selected from, one of xs, and does nothing else: every
// statement is such a record call, with arguments that do no work
// beyond conversions and len, or an if, switch or range whose
// conditions do no work and whose bodies only record.
func onlyRecords(body *ast.BlockStmt, xs []string, instruments map[string]bool) bool {
	if len(xs) == 0 || len(body.List) == 0 {
		return false
	}
	var records func(st ast.Stmt) bool
	all := func(list []ast.Stmt) bool {
		for _, st := range list {
			if !records(st) {
				return false
			}
		}
		return true
	}
	records = func(st ast.Stmt) bool {
		switch st := st.(type) {
		case *ast.BlockStmt:
			return all(st.List)
		case *ast.IfStmt:
			return st.Init == nil && !doesWork(st.Cond) && all(st.Body.List) && (st.Else == nil || records(st.Else))
		case *ast.SwitchStmt:
			if st.Init != nil || (st.Tag != nil && doesWork(st.Tag)) {
				return false
			}
			for _, c := range st.Body.List {
				if !all(c.(*ast.CaseClause).Body) {
					return false
				}
			}
			return true
		case *ast.RangeStmt:
			return !doesWork(st.X) && all(st.Body.List)
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				return false
			}
			fn, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !recordMethods[fn.Sel.Name] {
				return false
			}
			recv := fn.X
			if ix, ok := recv.(*ast.IndexExpr); ok {
				recv = ix.X
			}
			field, ok := recv.(*ast.SelectorExpr)
			if !ok || !instruments[field.Sel.Name] {
				return false
			}
			if !slices.Contains(xs, types.ExprString(field)) && !slices.Contains(xs, types.ExprString(field.X)) {
				return false
			}
			for _, a := range call.Args {
				if doesWork(a) {
					return false
				}
			}
			return true
		}
		return false
	}
	return all(body.List)
}

// cheapCalls are the calls an argument may make and still do no work
// worth skipping: numeric conversions and len.
var cheapCalls = map[string]bool{
	"float64": true, "uint64": true, "int64": true, "int": true, "uint32": true, "len": true,
}

// doesWork reports whether e calls anything but a cheap call.
func doesWork(e ast.Expr) bool {
	work := false
	ast.Inspect(e, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); !ok || !cheapCalls[id.Name] {
				work = true
			}
		}
		return !work
	})
	return work
}
